package pipeline

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/cluster"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// testStore writes a small phantom study to disk across 3 storage nodes.
func testStore(t testing.TB) *dataset.Store {
	t.Helper()
	dir := t.TempDir()
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{24, 20, 4, 6}, Seed: 17})
	if _, err := dataset.Write(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// memStore lays the volume out as an in-memory dataset across the given
// number of storage nodes and opens it.
func memStore(t testing.TB, v *volume.Volume, nodes int) *dataset.Store {
	t.Helper()
	mb, _, err := dataset.WriteMemDataset(v, nodes)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenBackend(context.Background(), mb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func testConfig(impl Impl, rep core.Representation, policy filter.Policy) *Config {
	return &Config{
		Analysis: core.Config{
			ROI:            [4]int{5, 5, 2, 2},
			GrayLevels:     16,
			NDim:           4,
			Distance:       1,
			Features:       features.PaperSet(),
			Representation: rep,
		},
		ChunkShape: [4]int{12, 12, 3, 4},
		Impl:       impl,
		Policy:     policy,
		Output:     OutputCollect,
	}
}

// queueBytes is the stream budget that admits n of cfg's texture chunks per
// input queue — and so more of the readers' smaller pieces, and one parameter
// buffer larger than that at a time: short queues, so these runs keep their
// back-pressure, as a queue depth of n buffers used to give them.
func queueBytes(cfg *Config, n int) int {
	c := cfg.ChunkShape
	return n * (80 + c[0]*c[1]*c[2]*c[3])
}

func gridsEqual(t *testing.T, label string, want, got *volume.FloatGrid) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing grid", label)
	}
	if want.Dims != got.Dims {
		t.Fatalf("%s: dims %v vs %v", label, want.Dims, got.Dims)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: voxel %d: %v != %v", label, i, want.Data[i], got.Data[i])
		}
	}
}

// TestParallelMatchesSequential is the central correctness matrix: every
// engine × implementation × policy × representation combination must
// reproduce the sequential reference exactly.
func TestParallelMatchesSequential(t *testing.T) {
	st := testStore(t)
	// One reference per representation: the sparse path sums cells in a
	// different order than the dense path, so cross-representation equality
	// is only up to 1 ulp (covered by core's property tests); within a
	// representation the parallel pipelines must be bit-exact.
	refs := map[core.Representation]map[features.Feature]*volume.FloatGrid{}
	for _, rep := range []core.Representation{core.FullMatrix, core.FullMatrixNoSkip, core.SparseMatrix} {
		r, err := Sequential(st, testConfig(HMPImpl, rep, filter.RoundRobin))
		if err != nil {
			t.Fatal(err)
		}
		refs[rep] = r
	}
	engines := []Engine{EngineLocal, EngineTCP, EngineSim}
	reps := []core.Representation{core.FullMatrix, core.FullMatrixNoSkip, core.SparseMatrix}
	for _, engine := range engines {
		for _, impl := range []Impl{HMPImpl, SplitImpl} {
			for _, policy := range []filter.Policy{filter.RoundRobin, filter.DemandDriven} {
				rep := reps[(int(engine)+int(impl))%len(reps)] // rotate representations across cases
				name := fmt.Sprintf("%v-%v-%v-%v", engine, impl, policy, rep)
				t.Run(name, func(t *testing.T) {
					cfg := testConfig(impl, rep, policy)
					layout := &Layout{
						SourceNodes: []int{0, 1, 2},
						IICNodes:    []int{3},
						HMPNodes:    []int{4, 5, 4},
						HCCNodes:    []int{4, 5},
						HPCNodes:    []int{5},
						OutputNodes: []int{0},
					}
					g, res, _, err := Build(st, cfg, layout)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Run(g, engine, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 8)}}); err != nil {
						t.Fatal(err)
					}
					if err := res.Complete(cfg.Analysis.Features); err != nil {
						t.Fatal(err)
					}
					for _, f := range cfg.Analysis.Features {
						gridsEqual(t, f.String(), refs[rep][f], res.Grid(f))
					}
				})
			}
		}
	}
}

func TestMemPipelineMatchesSequential(t *testing.T) {
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{20, 20, 4, 5}, Seed: 4})
	cfg := testConfig(SplitImpl, core.SparseMatrix, filter.DemandDriven)
	cfg.ChunkShape = [4]int{10, 10, 4, 4}
	// The oracle requantizes over the volume's own range; the dataset header
	// carries that range, so the readers requantize the same way.
	ref, err := SequentialGrid(volume.Requantize(v, cfg.Analysis.GrayLevels), cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := &Layout{SourceNodes: []int{0, 0}, HCCNodes: []int{1, 2}, HPCNodes: []int{2}}
	g, res, _, err := Build(memStore(t, v, 2), cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg.Analysis.Features {
		gridsEqual(t, f.String(), ref[f], res.Grid(f))
	}
}

func TestMultipleIICCopies(t *testing.T) {
	st := testStore(t)
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	ref, err := Sequential(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := &Layout{IICNodes: []int{0, 1, 2}, HMPNodes: []int{3, 4}}
	g, res, _, err := Build(st, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg.Analysis.Features {
		gridsEqual(t, f.String(), ref[f], res.Grid(f))
	}
}

func TestUSOOutputMatches(t *testing.T) {
	st := testStore(t)
	cfg := testConfig(SplitImpl, core.SparseMatrix, filter.RoundRobin)
	cfg.Output = OutputUSO
	cfg.OutDir = t.TempDir()
	ref, err := Sequential(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := &Layout{OutputNodes: []int{0, 1}} // two USO copies
	g, _, outDims, err := Build(st, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
	grids, err := filters.ReadUSODir(cfg.OutDir, outDims)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg.Analysis.Features {
		gridsEqual(t, f.String(), ref[f], grids[f])
	}
}

func TestJPEGOutput(t *testing.T) {
	st := testStore(t)
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.Output = OutputJPEG
	cfg.OutDir = t.TempDir()
	g, _, outDims, err := Build(st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	jpgs := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".jpg") {
			jpgs++
		}
	}
	want := len(cfg.Analysis.Features) * outDims[2] * outDims[3]
	if jpgs != want {
		t.Fatalf("wrote %d JPEGs, want %d", jpgs, want)
	}
	// File names should carry the feature names.
	if _, err := os.Stat(filepath.Join(cfg.OutDir, fmt.Sprintf("%s_t0000_z0000.jpg", features.ASM))); err != nil {
		t.Error(err)
	}
}

func TestBuildValidation(t *testing.T) {
	st := testStore(t)
	// Wrong RFR copy count.
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	if _, _, _, err := Build(st, cfg, &Layout{SourceNodes: []int{0}}); err == nil {
		t.Error("wrong RFR copy count accepted")
	}
	// Explicit texture policy is rejected.
	cfg = testConfig(HMPImpl, core.FullMatrix, filter.Explicit)
	if _, _, _, err := Build(st, cfg, nil); err == nil {
		t.Error("explicit texture policy accepted")
	}
	// Disk output without OutDir.
	cfg = testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.Output = OutputUSO
	if _, _, _, err := Build(st, cfg, nil); err == nil {
		t.Error("missing OutDir accepted")
	}
	// Chunk smaller than ROI.
	cfg = testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.ChunkShape = [4]int{2, 2, 1, 1}
	if _, _, _, err := Build(st, cfg, nil); err == nil {
		t.Error("tiny chunk accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, i := range []Impl{HMPImpl, SplitImpl} {
		var got Impl
		if err := got.UnmarshalText([]byte(i.String())); err != nil || got != i {
			t.Errorf("impl round trip %v", i)
		}
	}
	var bad Impl
	if err := bad.UnmarshalText([]byte("x")); err == nil {
		t.Error("bad impl accepted")
	}
	for _, e := range []Engine{EngineLocal, EngineTCP, EngineSim} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("engine round trip %v", e)
		}
	}
	if _, err := ParseEngine("x"); err == nil {
		t.Error("bad engine accepted")
	}
	if Impl(9).String() == "" || Engine(9).String() == "" {
		t.Error("empty strings for unknown enums")
	}
}

func TestRunInvalidEngine(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "x", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error { return nil })
	}})
	if _, err := Run(g, Engine(42), nil); err == nil {
		t.Error("invalid engine accepted")
	}
}

func TestSimOnPaperTopology(t *testing.T) {
	// The full disk pipeline on a simulated heterogeneous environment must
	// still be bit-exact, and the virtual elapsed time positive.
	st := testStore(t)
	cfg := testConfig(SplitImpl, core.SparseMatrix, filter.DemandDriven)
	ref, err := Sequential(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.NewHeterogeneous([]cluster.ClusterSpec{
		{Name: "piii", Nodes: 4, Speed: 1, Latency: cluster.LANLatency, MBps: cluster.FastEthernetMBps},
		{Name: "xeon", Nodes: 2, Speed: cluster.SpeedXeon, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
	}, cluster.Link{Latency: cluster.LANLatency, MBPerSecond: cluster.FastEthernetMBps})
	layout := &Layout{
		SourceNodes: []int{0, 1, 2},
		IICNodes:    []int{3},
		HCCNodes:    []int{4, 5},
		HPCNodes:    []int{4, 5},
		OutputNodes: []int{0},
	}
	g, res, _, err := Build(st, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(g, EngineSim, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 8)}, Topology: &h.Topology})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed() <= 0 {
		t.Error("no virtual time elapsed")
	}
	if stats.Elapsed() > time.Hour {
		t.Errorf("implausible virtual elapsed %v", stats.Elapsed())
	}
	for _, f := range cfg.Analysis.Features {
		gridsEqual(t, f.String(), ref[f], res.Grid(f))
	}
}

// TestDICOMPipelineMatchesRaw verifies the paper's named extension: a study
// stored as DICOM slices runs through the same Build and RFR as the raw
// layout and produces bit-identical results, on both in-process engines,
// for both representations and both texture decompositions. The constant
// study (every voxel 500) pins the one requantization range, the header's
// Min/Max, whatever the encoding: sum-average tells gray level 0 from G−1.
func TestDICOMPipelineMatchesRaw(t *testing.T) {
	constant := volume.NewVolume([4]int{24, 20, 4, 6})
	for i := range constant.Data {
		constant.Data[i] = 500
	}
	studies := map[string]*volume.Volume{
		"phantom":  synthetic.Generate(synthetic.Config{Dims: [4]int{24, 20, 4, 6}, Seed: 17}),
		"constant": constant,
	}
	for name, v := range studies {
		stores := map[dataset.Encoding]*dataset.Store{}
		for _, enc := range []dataset.Encoding{dataset.EncodingRaw, dataset.EncodingDICOM} {
			dir := t.TempDir()
			if _, err := dataset.WriteDistributed(dir, v, 3, dataset.RoundRobinDist, enc); err != nil {
				t.Fatal(err)
			}
			st, err := dataset.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			stores[enc] = st
		}
		for _, engine := range []Engine{EngineLocal, EngineTCP} {
			for _, impl := range []Impl{HMPImpl, SplitImpl} {
				for _, rep := range []core.Representation{core.FullMatrix, core.SparseMatrix} {
					t.Run(fmt.Sprintf("%s-%v-%v-%v", name, engine, impl, rep), func(t *testing.T) {
						results := map[dataset.Encoding]*filters.Results{}
						for enc, st := range stores {
							cfg := testConfig(impl, rep, filter.DemandDriven)
							cfg.Analysis.Features = features.All()
							g, res, _, err := Build(st, cfg, nil)
							if err != nil {
								t.Fatal(err)
							}
							if _, err := Run(g, engine, nil); err != nil {
								t.Fatalf("%v: %v", enc, err)
							}
							results[enc] = res
						}
						for _, f := range features.All() {
							gridsEqual(t, f.String(), results[dataset.EncodingRaw].Grid(f), results[dataset.EncodingDICOM].Grid(f))
						}
					})
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

func randRegion(rng *rand.Rand, g int) (*volume.Region, [4]int) {
	dims := [4]int{8 + rng.Intn(20), 6 + rng.Intn(10), 3 + rng.Intn(4), 3 + rng.Intn(4)}
	data := make([]uint8, dims[0]*dims[1]*dims[2]*dims[3])
	for i := range data {
		data[i] = uint8(rng.Intn(g))
	}
	return &volume.Region{Box: volume.BoxAt([4]int{}, dims), Data: data}, dims
}

func randConfig(rng *rand.Rand, dims [4]int) Config {
	cfg := Config{
		ROI: [4]int{
			2 + rng.Intn(dims[0]-2),
			2 + rng.Intn(dims[1]-2),
			1 + rng.Intn(dims[2]-1),
			1 + rng.Intn(dims[3]-1),
		},
		GrayLevels:     2 + rng.Intn(30),
		NDim:           1 + rng.Intn(4),
		Distance:       1,
		Representation: Representation(rng.Intn(3)),
		Features:       features.PaperSet(),
	}
	switch rng.Intn(3) {
	case 0:
		cfg.Directions = glcm.AxisDirections(4, 1)
	case 1:
		// 80 directions: glcm.Blocked.Plan refuses the set, so every worker
		// runs the oracle kernels.
		cfg.Directions = glcm.AllDirections(4, 1)
	}
	return cfg
}

// blockedRefuses reports whether cfg's direction set is one the blocked
// kernel's planner refuses (more than 64 directions).
func blockedRefuses(cfg Config) bool { return len(cfg.DirectionSet()) > 64 }

// TestParallelMatchesSequential is the property test of the parallel path:
// for randomized dims, ROI, gray levels, direction set and representation,
// every worker count must produce bit-identical feature values and
// identical Stats to the sequential reference (Workers = 1). Direction sets
// the blocked planner refuses pin the oracle fallback at workers > 1, in
// every representation.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fallback := map[Representation]bool{}
	for iter := 0; iter < 25; iter++ {
		cfg := Config{}
		var region *volume.Region
		var dims [4]int
		for {
			region, dims = randRegion(rng, 32)
			cfg = randConfig(rng, dims)
			if err := cfg.Validate(); err == nil {
				break
			}
		}
		for i := range region.Data {
			region.Data[i] %= uint8(cfg.GrayLevels)
		}
		outDims, err := volume.OutputDims(dims, cfg.ROI)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		origins := volume.BoxAt([4]int{}, outDims)
		if blockedRefuses(cfg) {
			fallback[cfg.Representation] = true
		}

		ref := cfg
		ref.Workers = 1
		var refStats Stats
		want, err := AnalyzeRegion(region, origins, &ref, &refStats)
		if err != nil {
			t.Fatalf("iter %d: sequential: %v", iter, err)
		}
		if wantPairs := refStats.Pairs; wantPairs != uint64(refStats.ROIs)*glcm.PairCount(cfg.ROI, cfg.DirectionSet()) {
			t.Fatalf("iter %d: stats pairs %d inconsistent with %d ROIs", iter, wantPairs, refStats.ROIs)
		}

		for _, workers := range []int{2, 3, 4, 8} {
			pcfg := cfg
			pcfg.Workers = workers
			var stats Stats
			got, err := AnalyzeRegion(region, origins, &pcfg, &stats)
			if err != nil {
				t.Fatalf("iter %d workers %d: %v", iter, workers, err)
			}
			if stats != refStats {
				t.Fatalf("iter %d workers %d: stats %+v, want %+v", iter, workers, stats, refStats)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Data, want[i].Data) {
					t.Fatalf("iter %d workers %d: feature %v diverged from sequential reference",
						iter, workers, cfg.Features[i])
				}
			}
		}
	}
	if len(fallback) != 3 {
		t.Errorf("the oracle fallback ran for representations %v, want all three", fallback)
	}
}

// TestKernelModesAgree runs each kernel mode a worker can end up in — the
// blocked kernel on its column path, the blocked kernel on its x-slab slide
// (G=256: the row's column stores exceed the budget) and the oracle fallback
// (80 directions: the planner refuses the set) — on a geometry that is
// checked to select it, and requires feature values and Stats equal to the
// sequential reference bit for bit in every representation.
func TestKernelModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name       string
		dims, roi  [4]int
		g, ndim    int
		dirs       []glcm.Direction
		plan, rows bool
	}{
		{"column", [4]int{22, 11, 4, 1}, [4]int{5, 4, 2, 1}, 8, 3, nil, true, true},
		{"x-slab", [4]int{14, 6, 3, 1}, [4]int{5, 4, 2, 1}, 256, 3, nil, true, false},
		{"oracle", [4]int{12, 7, 4, 4}, [4]int{4, 3, 2, 2}, 16, 4, glcm.AllDirections(4, 1), false, false},
	}
	for _, c := range cases {
		region := volume.NewRegion(volume.BoxAt([4]int{}, c.dims))
		for i := range region.Data {
			region.Data[i] = uint8(rng.Intn(c.g))
		}
		outDims, err := volume.OutputDims(c.dims, c.roi)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		origins := volume.BoxAt([4]int{}, outDims)
		for _, rep := range []Representation{FullMatrix, FullMatrixNoSkip, SparseMatrix} {
			tag := fmt.Sprintf("%s %v", c.name, rep)
			cfg := Config{ROI: c.roi, GrayLevels: c.g, NDim: c.ndim, Distance: 1, Directions: c.dirs, Representation: rep, Features: features.All()}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			k := glcm.NewBlocked(cfg.GrayLevels)
			plan := k.Plan(volume.Strides(c.dims), cfg.ROI, cfg.DirectionSet(), 1, 0)
			if plan != c.plan || plan && k.PlanRows(outDims[0]) != c.rows {
				t.Fatalf("%s: the geometry does not select the mode under test", tag)
			}
			ref := cfg
			ref.Workers = 1
			var refStats Stats
			want, err := AnalyzeRegion(region, origins, &ref, &refStats)
			if err != nil {
				t.Fatalf("%s: sequential: %v", tag, err)
			}
			pcfg := cfg
			pcfg.Workers = 4
			var stats Stats
			got, err := AnalyzeRegion(region, origins, &pcfg, &stats)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if stats != refStats {
				t.Fatalf("%s: stats %+v, want %+v", tag, stats, refStats)
			}
			for i := range want {
				for j, v := range want[i].Data {
					if math.Float64bits(got[i].Data[j]) != math.Float64bits(v) {
						t.Fatalf("%s: feature %v at %d is %v, the sequential reference's %v", tag, cfg.Features[i], j, got[i].Data[j], v)
					}
				}
			}
		}
	}
}

// TestBatchesMatchSequential checks that the batch builders produce
// value-identical matrices (and Stats) at every worker count, on the blocked
// kernel and on the oracle fallback.
func TestBatchesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	fallbacks := 0
	for iter := 0; iter < 15; iter++ {
		cfg := Config{}
		var region *volume.Region
		var dims [4]int
		for {
			region, dims = randRegion(rng, 32)
			cfg = randConfig(rng, dims)
			if err := cfg.Validate(); err == nil {
				break
			}
		}
		for i := range region.Data {
			region.Data[i] %= uint8(cfg.GrayLevels)
		}
		outDims, err := volume.OutputDims(dims, cfg.ROI)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		origins := volume.BoxAt([4]int{}, outDims)
		if blockedRefuses(cfg) {
			fallbacks++
		}

		ref := cfg
		ref.Workers = 1
		var refStats Stats
		wantS, err := SparseBatch(region, origins, &ref, &refStats)
		if err != nil {
			t.Fatalf("iter %d: sparse reference: %v", iter, err)
		}
		wantF, err := FullBatch(region, origins, &ref, nil)
		if err != nil {
			t.Fatalf("iter %d: full reference: %v", iter, err)
		}

		for _, workers := range []int{2, 4, 7} {
			pcfg := cfg
			pcfg.Workers = workers
			var stats Stats
			gotS, err := SparseBatch(region, origins, &pcfg, &stats)
			if err != nil {
				t.Fatalf("iter %d workers %d: sparse: %v", iter, workers, err)
			}
			if stats != refStats {
				t.Fatalf("iter %d workers %d: sparse stats %+v, want %+v", iter, workers, stats, refStats)
			}
			if len(gotS) != len(wantS) {
				t.Fatalf("iter %d workers %d: %d sparse matrices, want %d", iter, workers, len(gotS), len(wantS))
			}
			for k := range wantS {
				if err := gotS[k].Validate(); err != nil {
					t.Fatalf("iter %d workers %d: matrix %d invalid: %v", iter, workers, k, err)
				}
				if gotS[k].Total != wantS[k].Total || !reflect.DeepEqual(gotS[k].Entries, wantS[k].Entries) {
					t.Fatalf("iter %d workers %d: sparse matrix %d diverged", iter, workers, k)
				}
			}
			gotF, err := FullBatch(region, origins, &pcfg, nil)
			if err != nil {
				t.Fatalf("iter %d workers %d: full: %v", iter, workers, err)
			}
			if len(gotF) != len(wantF) {
				t.Fatalf("iter %d workers %d: %d full matrices, want %d", iter, workers, len(gotF), len(wantF))
			}
			for k := range wantF {
				if gotF[k].Total != wantF[k].Total || !reflect.DeepEqual(gotF[k].Counts, wantF[k].Counts) {
					t.Fatalf("iter %d workers %d: full matrix %d diverged", iter, workers, k)
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no iteration ran the oracle fallback")
	}
}

// TestAnalyzeRegionIntoReuse checks that pooled output regions are refilled
// correctly on reuse (stale values must be overwritten).
func TestAnalyzeRegionIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	region, dims := randRegion(rng, 8)
	cfg := Config{ROI: [4]int{4, 4, 2, 2}, GrayLevels: 8, NDim: 2, Distance: 1, Workers: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	outDims, err := volume.OutputDims(dims, cfg.ROI)
	if err != nil {
		t.Fatal(err)
	}
	origins := volume.BoxAt([4]int{}, outDims)
	want, err := AnalyzeRegion(region, origins, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*volume.FloatRegion, len(cfg.Features))
	for i := range out {
		out[i] = volume.NewFloatRegion(origins)
		for j := range out[i].Data {
			out[i].Data[j] = -1 // stale garbage that must be overwritten
		}
	}
	if err := AnalyzeRegionInto(region, origins, &cfg, nil, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(out[i].Data, want[i].Data) {
			t.Fatalf("feature %v: reused output region diverged", cfg.Features[i])
		}
	}

	if err := AnalyzeRegionInto(region, origins, &cfg, nil, out[:1]); err == nil {
		t.Error("expected error for wrong output region count")
	}
	bad := []*volume.FloatRegion{volume.NewFloatRegion(volume.BoxAt([4]int{}, [4]int{1, 1, 1, 1}))}
	badCfg := cfg
	badCfg.Features = cfg.Features[:1]
	if err := AnalyzeRegionInto(region, origins, &badCfg, nil, bad); err == nil {
		t.Error("expected error for mismatched output region box")
	}
}

// TestValidateWorkersAndPairs covers the new Validate rejections and the
// CheckRegion helper.
func TestValidateWorkersAndPairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for negative workers")
	}
	cfg = DefaultConfig()
	cfg.ROI = [4]int{1, 1, 1, 1}
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for ROI admitting no voxel pairs")
	}
	cfg = DefaultConfig()
	cfg.ROI = [4]int{2, 1, 1, 1}
	cfg.Distance = 2
	if err := cfg.Validate(); err == nil {
		t.Error("expected error when every displacement exceeds the ROI")
	}
	cfg = DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.CheckRegion([4]int{256, 256, 32, 32}); err != nil {
		t.Errorf("CheckRegion rejected a containing region: %v", err)
	}
	if err := cfg.CheckRegion([4]int{8, 256, 32, 32}); err == nil {
		t.Error("CheckRegion accepted a region smaller than the ROI")
	}
	if cfg.EffectiveWorkers() < 1 {
		t.Error("EffectiveWorkers must be at least 1")
	}
	cfg.Workers = 6
	if cfg.EffectiveWorkers() != 6 {
		t.Error("explicit worker count not honored")
	}
}

// TestRowCarryUnevenBlocks runs the kernel's column path — per-column
// histograms and level bounds carried from row to row — the way workers are
// dealt it, on origin boxes strictly inside an offset region: 49 raster rows
// (7 y × 7 z) dealt as whole planes to 2 and 3 workers and as sub-plane
// grains to 5; a single (z, t) plane, cut into sub-plane grains for every
// worker count; and 2 planes for 2, 3 and 5 workers, fewer planes than
// workers at 3 and 5. Over noise (every window is [0, G)) and over a ramp
// (narrow windows that move with the origin), feature values, batch
// matrices and Stats must equal the workers = 1 oracle bit for bit in every
// representation: FullMatrix through the fused non-zero list,
// FullMatrixNoSkip through the dense snapshot, SparseMatrix.
func TestRowCarryUnevenBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	regionBox := volume.BoxAt([4]int{3, 2, 1, 0}, [4]int{22, 11, 9, 1})
	for _, fill := range []string{"noise", "ramp"} {
		region := volume.NewRegion(regionBox)
		for i := range region.Data {
			region.Data[i] = uint8(rng.Intn(8))
			if fill == "ramp" {
				region.Data[i] = uint8((i%22+i/22%11)/5 + rng.Intn(2))
			}
		}
		for _, shape := range [][4]int{{15, 7, 7, 1}, {15, 7, 1, 1}, {15, 7, 2, 1}} {
			origins := volume.BoxAt([4]int{4, 3, 2, 0}, shape)
			for _, rep := range []Representation{FullMatrix, FullMatrixNoSkip, SparseMatrix} {
				checkRowCarry(t, fmt.Sprintf("%s %v %v", fill, shape, rep), region, origins, rep)
			}
		}
	}
}

// checkRowCarry compares AnalyzeRegion and the batch builder of rep at 2, 3
// and 5 workers with the workers = 1 oracle: values bit for bit, Stats
// equal.
func checkRowCarry(t *testing.T, tag string, region *volume.Region, origins volume.Box, rep Representation) {
	t.Helper()
	cfg := Config{ROI: [4]int{5, 4, 2, 1}, GrayLevels: 8, NDim: 3, Distance: 1, Representation: rep, Features: features.All()}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	k := glcm.NewBlocked(cfg.GrayLevels)
	if !k.Plan(volume.Strides(region.Box.Shape()), cfg.ROI, cfg.DirectionSet(), 1, 0) || !k.PlanRows(origins.Shape()[0]) {
		t.Fatal("the test geometry does not take the column path")
	}
	// batch runs the representation's batch builder and returns its
	// matrices in a comparable form.
	batch := func(cfg *Config, stats *Stats) []any {
		var out []any
		if rep == SparseMatrix {
			ms, err := SparseBatch(region, origins, cfg, stats)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				out = append(out, *m)
			}
		} else {
			ms, err := FullBatch(region, origins, cfg, stats)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				out = append(out, *m)
			}
		}
		return out
	}
	ref := cfg
	ref.Workers = 1
	var refStats, refBatchStats Stats
	want, err := AnalyzeRegion(region, origins, &ref, &refStats)
	if err != nil {
		t.Fatal(err)
	}
	wantB := batch(&ref, &refBatchStats)
	for _, workers := range []int{2, 3, 5} {
		tag := fmt.Sprintf("%s workers %d", tag, workers)
		pcfg := cfg
		pcfg.Workers = workers
		var stats, batchStats Stats
		got, err := AnalyzeRegion(region, origins, &pcfg, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if stats != refStats {
			t.Errorf("%s: stats %+v, want %+v", tag, stats, refStats)
		}
		for i := range want {
			for j, v := range want[i].Data {
				if math.Float64bits(got[i].Data[j]) != math.Float64bits(v) {
					t.Fatalf("%s: feature %v at %d is %v, the oracle's %v", tag, cfg.Features[i], j, got[i].Data[j], v)
				}
			}
		}
		gotB := batch(&pcfg, &batchStats)
		if batchStats != refBatchStats {
			t.Errorf("%s: batch stats %+v, want %+v", tag, batchStats, refBatchStats)
		}
		if len(gotB) != len(wantB) {
			t.Fatalf("%s: %d batch matrices, want %d", tag, len(gotB), len(wantB))
		}
		for k := range wantB {
			if !reflect.DeepEqual(gotB[k], wantB[k]) {
				t.Fatalf("%s: batch matrix %d diverged from the oracle", tag, k)
			}
		}
	}
}

// TestStatsAgreeAcrossPaths: Stats means the same thing on every path — the
// sequential oracle, the fused non-zero list, the dense snapshot, the sparse
// list, whatever the worker count. StoredEntries counts a mirror pair once
// (Full.NonZero, the size of the equivalent sparse form) in every
// representation, so all nine combinations report equal counters.
func TestStatsAgreeAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	region, dims := randRegion(rng, 16)
	var first *Stats
	for _, rep := range []Representation{FullMatrix, FullMatrixNoSkip, SparseMatrix} {
		for _, workers := range []int{1, 2, 3} {
			cfg := Config{ROI: [4]int{4, 3, 2, 2}, GrayLevels: 16, NDim: 4, Distance: 1, Representation: rep, Workers: workers}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			outDims, err := volume.OutputDims(dims, cfg.ROI)
			if err != nil {
				t.Fatal(err)
			}
			var stats Stats
			if _, err := AnalyzeRegion(region, volume.BoxAt([4]int{}, outDims), &cfg, &stats); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &stats
				if stats.ROIs == 0 || stats.StoredEntries <= stats.ROIs || stats.Pairs == 0 {
					t.Fatalf("implausible oracle stats %+v", stats)
				}
			} else if stats != *first {
				t.Errorf("%v workers %d: stats %+v, want %+v", rep, workers, stats, *first)
			}
		}
	}
}

// BenchmarkAnalyzeWindow times the parallel per-chunk computation on the
// paper geometry over two kinds of data: "noise" spans every gray level in
// every slab column, so each ROI's gray-level window is [0, G) — the worst
// case of the column path, which then skips nothing — and "smooth" is a slow
// ramp with two levels of noise, the narrow windows of real studies.
func BenchmarkAnalyzeWindow(b *testing.B) {
	dims := [4]int{56, 40, 4, 4}
	for _, kind := range []string{"noise", "smooth"} {
		rng := rand.New(rand.NewSource(11))
		region := volume.NewRegion(volume.BoxAt([4]int{}, dims))
		for i := range region.Data {
			region.Data[i] = uint8(rng.Intn(32))
			if kind == "smooth" {
				x, y := i%dims[0], i/dims[0]%dims[1]
				region.Data[i] = uint8((x+y)/4 + rng.Intn(2))
			}
		}
		for _, rep := range []Representation{FullMatrix, SparseMatrix} {
			cfg := DefaultConfig()
			cfg.Representation, cfg.Workers = rep, 2
			outDims, _ := volume.OutputDims(dims, cfg.ROI)
			origins := volume.BoxAt([4]int{}, outDims)
			b.Run(kind+"/"+rep.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := AnalyzeRegion(region, origins, &cfg, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(origins.NumVoxels())*float64(b.N)/b.Elapsed().Seconds(), "ROI/s")
			})
		}
	}
}

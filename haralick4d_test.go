package haralick4d

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/runspec"
	"haralick4d/internal/volume"
)

func phantom(t testing.TB) *Volume {
	t.Helper()
	return GeneratePhantom(PhantomConfig{Dims: [4]int{24, 24, 5, 6}, Seed: 11})
}

func smallOpts(par int) *Options {
	return &Options{Spec: Spec{
		ROI:        [4]int{5, 5, 2, 2},
		GrayLevels: 16,
		Texture:    par,
	}}
}

func TestAnalyzeSequential(t *testing.T) {
	res, err := Analyze(phantom(t), smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputDims != [4]int{20, 20, 4, 5} {
		t.Fatalf("OutputDims = %v", res.OutputDims)
	}
	if len(res.Grids) != len(PaperFeatures()) {
		t.Fatalf("got %d grids", len(res.Grids))
	}
	for f, g := range res.Grids {
		if g.Dims != res.OutputDims {
			t.Errorf("%v dims %v", f, g.Dims)
		}
		for _, v := range g.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v has NaN/Inf", f)
			}
		}
	}
	// ASM must lie in (0, 1].
	asm := res.Grids[ASM]
	for _, v := range asm.Data {
		if v <= 0 || v > 1 {
			t.Fatalf("ASM value %v out of range", v)
		}
	}
}

// TestAnalyzeMatchesOracle checks the façade against the sequential
// reference scan — core.AnalyzeGrid at one worker over the volume
// requantized by its own range — bit for bit, for all fourteen features,
// both matrix representations, both texture decompositions, and one and
// several texture copies.
func TestAnalyzeMatchesOracle(t *testing.T) {
	v := phantom(t)
	for _, rep := range []Representation{FullMatrix, SparseMatrix} {
		for _, impl := range []runspec.Impl{runspec.HMP, runspec.Split} {
			for _, tex := range []int{1, 3} {
				opts := smallOpts(tex)
				opts.Features = AllFeatures()
				opts.Representation = rep
				opts.Impl = impl
				t.Run(fmt.Sprintf("%v-%v-texture%d", impl, rep, tex), func(t *testing.T) {
					acfg := opts.Resolved().Analysis()
					acfg.Workers = 1
					want, err := core.AnalyzeGrid(volume.Requantize(v, acfg.GrayLevels), &acfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Analyze(v, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, f := range acfg.Features {
						a, b := want[i], got.Grids[f]
						if b == nil || a.Dims != b.Dims {
							t.Fatalf("%v: grid %v, want dims %v", f, b, a.Dims)
						}
						for k := range a.Data {
							if math.Float64bits(a.Data[k]) != math.Float64bits(b.Data[k]) {
								t.Fatalf("%v voxel %d: oracle %v, Analyze %v", f, k, a.Data[k], b.Data[k])
							}
						}
					}
				})
			}
		}
	}
}

// TestAnalyzeDeadline checks that Options.Deadline bounds the in-memory
// entry point as it bounds AnalyzeDataset.
func TestAnalyzeDeadline(t *testing.T) {
	opts := smallOpts(1)
	opts.Deadline = 1 // 1 ns: expired before the run starts
	if _, err := Analyze(phantom(t), opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestAnalyzeDefaultsAndErrors(t *testing.T) {
	// Defaults (paper config) on a dataset smaller than the default ROI
	// must fail cleanly.
	v := NewVolume([4]int{8, 8, 2, 2})
	if _, err := Analyze(v, nil); err == nil {
		t.Error("default ROI larger than dataset accepted")
	}
	// Invalid options are rejected.
	if _, err := Analyze(v, &Options{Spec: Spec{GrayLevels: 1}}); err == nil {
		t.Error("invalid gray levels accepted")
	}
}

func TestAnalyzeDatasetRoundTrip(t *testing.T) {
	v := phantom(t)
	dir := t.TempDir()
	if err := WriteDataset(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDataset(dir, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	// Disk-resident analysis must equal the in-memory path. (The dataset
	// header preserves the global min/max, so requantization agrees.)
	mem, err := Analyze(v, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := mem.Grids[f], res.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d differs between memory and disk paths", f, i)
			}
		}
	}
}

func TestAnalyzeDatasetMissing(t *testing.T) {
	if _, err := AnalyzeDataset(t.TempDir(), smallOpts(1)); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestFeatureHelpers(t *testing.T) {
	if len(AllFeatures()) != 14 {
		t.Error("AllFeatures != 14")
	}
	if len(PaperFeatures()) != 4 {
		t.Error("PaperFeatures != 4")
	}
	f, err := ParseFeature("entropy")
	if err != nil || f != Entropy {
		t.Error("ParseFeature failed")
	}
	if Version == "" {
		t.Error("empty version")
	}
}

func TestAllFourteenFeatures(t *testing.T) {
	opts := smallOpts(2)
	opts.Features = AllFeatures()
	res, err := Analyze(phantom(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grids) != 14 {
		t.Fatalf("got %d grids", len(res.Grids))
	}
	for f, g := range res.Grids {
		for _, v := range g.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %v produced NaN/Inf", f)
			}
		}
	}
}

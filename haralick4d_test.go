package haralick4d

import (
	"math"
	"testing"
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

func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	v := phantom(t)
	seq, err := Analyze(v, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Analyze(v, smallOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := seq.Grids[f], par.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d: %v != %v", f, i, a.Data[i], b.Data[i])
			}
		}
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

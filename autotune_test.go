package haralick4d

import (
	"testing"
	"time"
)

// tuneOpts is smallOpts with live tuning on: a fast sampling interval so
// even a sub-second test run gives the controller several ticks.
func tuneOpts(par int) *Options {
	o := smallOpts(par)
	o.AutoTune = true
	o.AutoTuneInterval = 2 * time.Millisecond
	o.AutoTuneSeed = 7
	o.ReadAhead = 2
	return o
}

// TestAutoTuneBitIdentical is the tentpole's correctness contract: live
// tuning turns scheduling knobs only (compute admission), never routing or
// values, so a tuned run's grids are bit-identical to the
// untuned sequential oracle — and the report carries the decision log.
func TestAutoTuneBitIdentical(t *testing.T) {
	v := phantom(t)
	dir := t.TempDir()
	if err := WriteDataset(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	oracle, err := AnalyzeDataset(dir, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := AnalyzeDataset(dir, tuneOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := oracle.Grids[f], tuned.Grids[f]
		if a.Dims != b.Dims {
			t.Fatalf("%v dims differ: %v vs %v", f, a.Dims, b.Dims)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d differs between untuned and autotuned runs", f, i)
			}
		}
	}
	if tuned.Report == nil || tuned.Report.Tuning == nil {
		t.Fatal("autotuned run report carries no Tuning section")
	}
	tr := tuned.Report.Tuning
	if len(tr.Decisions) == 0 {
		t.Fatal("Tuning.Decisions empty: init records must always be present")
	}
	if tr.Seed != 7 || tr.IntervalNS != int64(2*time.Millisecond) {
		t.Fatalf("Tuning header = seed %d interval %d", tr.Seed, tr.IntervalNS)
	}
	if len(tr.Final) == 0 {
		t.Fatal("Tuning.Final empty: knob values must be reported")
	}
	if _, ok := tr.Final["admission"]; !ok {
		t.Fatalf("admission knob missing from Final: %v", tr.Final)
	}
	if _, ok := tr.Final["readahead"]; ok {
		t.Fatalf("Final still carries a readahead knob: readers size themselves now: %v", tr.Final)
	}
	// The untuned oracle must stay untouched by the feature.
	if oracle.Report != nil && oracle.Report.Tuning != nil {
		t.Fatal("untuned run grew a Tuning section")
	}
}

// TestAutoTuneInMemory covers the Analyze (in-memory) parallel path: same
// bit-identical contract against the sequential oracle, which ignores
// AutoTune by design (workers=1 runs the plain sequential core).
func TestAutoTuneInMemory(t *testing.T) {
	v := phantom(t)
	seq, err := Analyze(v, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Analyze(v, tuneOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := seq.Grids[f], tuned.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d differs between sequential and autotuned runs", f, i)
			}
		}
	}
	if tuned.Report == nil || tuned.Report.Tuning == nil || len(tuned.Report.Tuning.Decisions) == 0 {
		t.Fatal("autotuned in-memory run carries no tuning decisions")
	}
	// Sequential path: AutoTune flags are accepted but the sequential core
	// has no pipeline to tune — the result must stay the oracle.
	seqTuned, err := Analyze(v, func() *Options { o := tuneOpts(1); o.ReadAhead = 0; return o }())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := seq.Grids[f], seqTuned.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d: workers=1 with AutoTune diverged from the oracle", f, i)
			}
		}
	}
}

// TestAutoTuneValidation pins the option cross-checks.
func TestAutoTuneValidation(t *testing.T) {
	v := phantom(t)
	bad := []*Options{
		func() *Options { o := smallOpts(2); o.AutoTuneInterval = -time.Second; return o }(),
		func() *Options { o := smallOpts(2); o.AutoTuneInterval = time.Second; return o }(), // without AutoTune
		func() *Options { o := smallOpts(2); o.AutoTuneSeed = 5; return o }(),               // without AutoTune
		func() *Options { o := tuneOpts(2); o.DisableMetrics = true; return o }(),
	}
	for i, o := range bad {
		if _, err := Analyze(v, o); err == nil {
			t.Errorf("case %d: invalid autotune options accepted", i)
		}
	}
}

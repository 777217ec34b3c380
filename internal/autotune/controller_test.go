package autotune

import (
	"reflect"
	"testing"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/sem"
)

// snap builds a minimal snapshot: wall clock and cumulative messages out.
func snap(wallNS, msgs int64) *metrics.Snapshot {
	return &metrics.Snapshot{
		WallNS: wallNS,
		Filters: []metrics.FilterSnap{{
			Name:   "HMP",
			Copies: []metrics.CopySnap{{Node: 0, MsgsOut: msgs}},
		}},
	}
}

// trace replays a fixed snapshot sequence through a fresh controller with
// the admission knob enabled and returns the decision log.
func trace(t *testing.T, seed int64, snaps []*metrics.Snapshot) []metrics.TuningDecision {
	t.Helper()
	c := New(Config{Seed: seed})
	if tk := c.EnableAdmission(4, 1, 4); tk == nil {
		t.Fatal("EnableAdmission returned nil")
	}
	for _, s := range snaps {
		c.Step(s)
	}
	return c.Decisions()
}

// TestDeterministicDecisions is the fixed-seed contract: the same snapshot
// trace with the same seed reproduces the identical decision log, and a
// different seed is allowed to (and here does not need to) differ.
func TestDeterministicDecisions(t *testing.T) {
	mk := func() []*metrics.Snapshot {
		var s []*metrics.Snapshot
		// A noisy but fixed trace: the rate wobbles around a slow climb.
		msgs, wall := int64(0), int64(0)
		for _, d := range []int64{0, 40, 44, 39, 60, 61, 30, 33, 70, 72, 71, 35, 80, 82, 84, 90} {
			wall += int64(100 * time.Millisecond)
			msgs += d
			s = append(s, snap(wall, msgs))
		}
		return s
	}
	a := trace(t, 7, mk())
	b := trace(t, 7, mk())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, same trace, different decisions:\n%v\n%v", a, b)
	}
	if len(a) < 2 {
		t.Fatalf("trace produced %d decisions, want the init record and at least one move", len(a))
	}
	if d := a[0]; d.Trigger != "init" || d.AtNS != 0 {
		t.Fatalf("decision log must start with the init record, got %+v", d)
	}
}

// TestWarmupSkipped checks ticks with no output (and clock-stalled ticks)
// turn no knobs.
func TestWarmupSkipped(t *testing.T) {
	c := New(Config{})
	c.EnableAdmission(4, 1, 4)
	for i := 0; i < 5; i++ {
		c.Step(snap(int64(i+1)*1e8, 0))
	}
	c.Step(snap(1e8, 50)) // wall went backwards vs a later anchor: also skipped
	if d := c.Decisions(); len(d) != 1 || d[0].Trigger != "init" {
		t.Fatalf("warm-up ticks produced decisions beyond init: %v", d)
	}
}

// TestAcceptKeepsClimbing checks the hysteresis accept path: a move followed
// by a clear rate improvement is kept and the climb continues in the same
// direction (down, for admission: shedding concurrency).
func TestAcceptKeepsClimbing(t *testing.T) {
	c := New(Config{})
	tk := c.EnableAdmission(4, 1, 4)
	wall, msgs := int64(0), int64(0)
	step := func(d int64) {
		wall += int64(100 * time.Millisecond)
		msgs += d
		c.Step(snap(wall, msgs))
	}
	step(50) // anchor
	step(50) // baseline measured, move 4→3 proposed
	if got := tk.Limit(); got != 3 {
		t.Fatalf("after first move limit = %d, want 3", got)
	}
	step(100) // clearly above baseline×1.05: accepted, climbs on 3→2
	if got := tk.Limit(); got != 2 {
		t.Fatalf("accepted move should keep climbing, limit = %d, want 2", got)
	}
	for _, d := range c.Decisions() {
		if d.Trigger == "revert" {
			t.Fatalf("no revert expected in a monotone-improving trace: %v", c.Decisions())
		}
	}
}

// TestRevertRestoresValue checks the hysteresis revert path: a move followed
// by a clear regression restores the previous value and logs the revert.
func TestRevertRestoresValue(t *testing.T) {
	c := New(Config{})
	tk := c.EnableAdmission(4, 1, 4)
	wall, msgs := int64(0), int64(0)
	step := func(d int64) {
		wall += int64(100 * time.Millisecond)
		msgs += d
		c.Step(snap(wall, msgs))
	}
	step(50) // anchor
	step(50) // baseline measured, move 4→3 proposed
	step(10) // far below baseline×0.95: revert
	if got := tk.Limit(); got != 4 {
		t.Fatalf("regressing move not reverted: limit = %d, want 4", got)
	}
	ds := c.Decisions()
	last := ds[len(ds)-1]
	if last.Trigger != "revert" || last.From != 3 || last.To != 4 {
		t.Fatalf("last decision = %+v, want revert 3→4", last)
	}
}

// TestAttach checks the report section carries the log, interval, seed and
// final knob values; Attach must be nil-safe on both sides.
func TestAttach(t *testing.T) {
	var nilC *Controller
	nilC.Attach(&metrics.RunReport{}) // must not panic
	c := New(Config{Seed: 3, Interval: 50 * time.Millisecond})
	c.Attach(nil) // must not panic
	c.EnableAdmission(2, 1, 8)
	rep := &metrics.RunReport{}
	c.Attach(rep)
	if rep.Tuning == nil {
		t.Fatal("Attach left Tuning nil")
	}
	if rep.Tuning.Seed != 3 || rep.Tuning.IntervalNS != int64(50*time.Millisecond) {
		t.Fatalf("Tuning header = %+v", rep.Tuning)
	}
	if got := rep.Tuning.Final["admission"]; got != 2 {
		t.Fatalf("Final[admission] = %d, want 2", got)
	}
	if len(rep.Tuning.Decisions) == 0 {
		t.Fatal("Tuning.Decisions empty: the init record must always be present")
	}
}

// TestTokensResize checks the admission semaphore's live-resize contract and
// its nil-receiver no-op behavior.
func TestTokensResize(t *testing.T) {
	var nilT *sem.Sem
	if !nilT.Acquire(1, nil) {
		t.Fatal("a nil semaphore must admit everything")
	}
	nilT.Release(1)

	tk := New(Config{}).EnableAdmission(2, 1, 4)
	stop := make(chan struct{})
	if !tk.Acquire(1, stop) || !tk.Acquire(1, stop) {
		t.Fatal("two acquires within the limit must not block")
	}
	// A third acquire blocks until Resize raises the limit.
	got := make(chan bool, 1)
	go func() { got <- tk.Acquire(1, stop) }()
	select {
	case <-got:
		t.Fatal("acquire beyond the limit did not block")
	case <-time.After(20 * time.Millisecond):
	}
	tk.Resize(3)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("acquire returned false after Resize")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Resize did not wake the blocked acquire")
	}
	// A blocked acquire aborts when stop closes.
	go func() { got <- tk.Acquire(1, stop) }()
	close(stop)
	select {
	case ok := <-got:
		if ok {
			t.Fatal("acquire must return false once stop closes")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("closing stop did not unblock the acquire")
	}
	tk.Release(1)
	tk.Release(1)
	tk.Release(1)
}

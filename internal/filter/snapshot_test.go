package filter

import (
	"sync"
	"testing"
	"time"

	"haralick4d/internal/metrics"
)

// slowSource emits n integers with a small delay so the monitor observes
// the run mid-flight across several ticks.
func slowSource(n int, delay time.Duration) func(int) Filter {
	return func(copy int) Filter {
		return Func(func(ctx Context) error {
			for i := 0; i < n; i++ {
				time.Sleep(delay)
				if err := ctx.Send("out", intPayload(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// collectSnapshots runs a src→sink pipeline with a Monitor that samples the
// probe's mid-run report on a tight ticker, returning every report taken
// plus one final sample at stop time.
func collectSnapshots(t *testing.T, sinkCopies int) []*metrics.RunReport {
	t.Helper()
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: slowSource(150, 300*time.Microsecond)})
	sink, _ := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: sinkCopies, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: DemandDriven})

	var mu sync.Mutex
	var snaps []*metrics.RunReport
	opts := &Options{Monitor: func(stop <-chan struct{}, p Probe) {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				mu.Lock()
				snaps = append(snaps, p.Report())
				mu.Unlock()
				return
			case <-tick.C:
				mu.Lock()
				snaps = append(snaps, p.Report())
				mu.Unlock()
			}
		}
	}}
	if _, err := RunLocal(g, opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) < 2 {
		t.Fatalf("monitor took %d snapshots, want at least 2", len(snaps))
	}
	return snaps
}

// TestSnapshotDeltasMonotonic is the live-snapshot contract progress
// consumers difference: across consecutive snapshots of one run, the
// wall clock advances and every per-copy counter and span total is
// monotonically non-decreasing.
func TestSnapshotDeltasMonotonic(t *testing.T) {
	snaps := collectSnapshots(t, 3)
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.ElapsedNS < prev.ElapsedNS {
			t.Fatalf("snapshot %d: wall went backwards (%d → %d)", i, prev.ElapsedNS, cur.ElapsedNS)
		}
		if len(cur.Filters) != len(prev.Filters) {
			t.Fatalf("snapshot %d: filter count changed (%d → %d)", i, len(prev.Filters), len(cur.Filters))
		}
		for fi := range cur.Filters {
			pf, cf := prev.Filters[fi], cur.Filters[fi]
			if len(cf.Copies) != len(pf.Copies) {
				t.Fatalf("snapshot %d: %s copy count changed (%d → %d)", i, cf.Name, len(pf.Copies), len(cf.Copies))
			}
			for ci := range cf.Copies {
				pc, cc := pf.Copies[ci], cf.Copies[ci]
				counters := [][2]int64{
					{pc.MsgsIn, cc.MsgsIn},
					{pc.MsgsOut, cc.MsgsOut},
					{pc.BusyNS, cc.BusyNS},
					{pc.BlockedRecvNS, cc.BlockedRecvNS},
					{pc.StalledSendNS, cc.StalledSendNS},
				}
				for k, pair := range counters {
					if pair[1] < pair[0] {
						t.Fatalf("snapshot %d: %s copy %d counter %d went backwards (%d → %d)",
							i, cf.Name, ci, k, pair[0], pair[1])
					}
				}
			}
			for span, ptot := range pf.Spans {
				if ctot := cf.Spans[span]; ctot.TotalNS < ptot.TotalNS {
					t.Fatalf("snapshot %d: %s span %q total went backwards (%d → %d)", i, cf.Name, span, ptot.TotalNS, ctot.TotalNS)
				}
			}
		}
	}
}

// TestSnapshotIdentitiesStable checks that filters appear in graph spec
// order and each copy keeps its position and node across snapshots, so
// position-wise deltas compare like with like.
func TestSnapshotIdentitiesStable(t *testing.T) {
	snaps := collectSnapshots(t, 2)
	first := snaps[0]
	if len(first.Filters) != 2 || first.Filters[0].Name != "src" || first.Filters[1].Name != "sink" {
		t.Fatalf("filters not in graph spec order: %+v", first.Filters)
	}
	if len(first.Filters[1].Copies) != 2 {
		t.Fatalf("sink has %d copy snaps, want 2", len(first.Filters[1].Copies))
	}
	for i, s := range snaps {
		for fi, f := range s.Filters {
			if f.Name != first.Filters[fi].Name {
				t.Fatalf("snapshot %d: filter %d renamed %q → %q", i, fi, first.Filters[fi].Name, f.Name)
			}
			for ci, c := range f.Copies {
				if c.Copy != first.Filters[fi].Copies[ci].Copy || c.Node != first.Filters[fi].Copies[ci].Node {
					t.Fatalf("snapshot %d: %s copy %d identity changed: %+v vs %+v",
						i, f.Name, ci, c, first.Filters[fi].Copies[ci])
				}
			}
		}
	}
}

// TestSnapshotSeesProgress checks the snapshots are live, not end-of-run
// artifacts: some snapshot taken before the final one reports partial
// output, and the totals grow to the full message count by the last.
func TestSnapshotSeesProgress(t *testing.T) {
	snaps := collectSnapshots(t, 2)
	last := snaps[len(snaps)-1]
	if got := last.Progress().MsgsOut; got < 150 {
		t.Fatalf("final snapshot reports %d total messages out, want >= 150", got)
	}
	var partial bool
	for _, s := range snaps[:len(snaps)-1] {
		if out := s.Progress().MsgsOut; out > 0 && out < last.Progress().MsgsOut {
			partial = true
			break
		}
	}
	if !partial {
		t.Fatal("no mid-run snapshot observed partial progress (monitor only fired at the end?)")
	}
}

package server

import (
	"sync"
	"testing"
)

func TestGovernorFairShares(t *testing.T) {
	g := newGovernor(budgets{TotalReadAhead: 12, TotalWorkers: 8, JobReadAhead: 8, JobWorkers: 6})

	g1 := g.admit(1)
	// Alone: the whole pool, clamped to the per-job quota.
	if d := g1.gate.Limit(); d != 8 {
		t.Fatalf("solo read-ahead share %d, want quota-capped 8", d)
	}
	if l := g1.tokens.Limit(); l != 6 {
		t.Fatalf("solo worker share %d, want quota-capped 6", l)
	}

	g2 := g.admit(2)
	// Two jobs: even split, and the first job was shrunk live.
	for i, gr := range []*grant{g1, g2} {
		if d := gr.gate.Limit(); d != 6 {
			t.Fatalf("job %d read-ahead share %d, want 12/2=6", i+1, d)
		}
		if l := gr.tokens.Limit(); l != 4 {
			t.Fatalf("job %d worker share %d, want 8/2=4", i+1, l)
		}
	}

	g3 := g.admit(3)
	if d := g3.gate.Limit(); d != 4 {
		t.Fatalf("three-way read-ahead share %d, want 4", d)
	}

	// Releases hand credits back to survivors immediately.
	g.release(2)
	g.release(3)
	if d := g1.gate.Limit(); d != 8 {
		t.Fatalf("after releases, read-ahead share %d, want 8", d)
	}
	if l := g1.tokens.Limit(); l != 6 {
		t.Fatalf("after releases, worker share %d, want 6", l)
	}
}

func TestGovernorShareNeverBelowOne(t *testing.T) {
	g := newGovernor(budgets{TotalReadAhead: 2, TotalWorkers: 1, JobReadAhead: 4, JobWorkers: 4})
	var grants []*grant
	for id := int64(1); id <= 5; id++ {
		grants = append(grants, g.admit(id))
	}
	// Five jobs over a budget of 1-2: everyone keeps the floor of one
	// credit (a zero share would wedge a pipeline forever).
	for i, gr := range grants {
		if d := gr.gate.Limit(); d < 1 {
			t.Fatalf("job %d read-ahead share %d", i+1, d)
		}
		if l := gr.tokens.Limit(); l < 1 {
			t.Fatalf("job %d worker share %d", i+1, l)
		}
	}
}

func TestGovernorConcurrentAdmitRelease(t *testing.T) {
	g := newGovernor(budgets{TotalReadAhead: 16, TotalWorkers: 8, JobReadAhead: 8, JobWorkers: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				id := base*1000 + i
				g.admit(id)
				g.release(id)
			}
		}(int64(w))
	}
	wg.Wait()
	ra, wk, n := g.shares()
	if n != 0 {
		t.Fatalf("%d grants leaked", n)
	}
	if ra != 8 || wk != 8 {
		t.Fatalf("post-churn shares %d/%d, want quota caps 8/8", ra, wk)
	}
}

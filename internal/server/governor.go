// The resource governor: one global read-ahead and compute budget,
// partitioned across running jobs by live-resizing each job's read-ahead
// gate and admission tokens, one sem.Sem each. Admitting or releasing a job
// rebalances every running job's share — an even split of the global
// budget, clamped into [1, per-job quota] — so a saturated daemon degrades
// fairly instead of letting the first job keep everything, and a job that
// finishes hands its credits back to the survivors immediately. The gates
// absorb shrinks below the in-flight count by draining (outstanding work
// completes, no new credit is issued), which is exactly the contract the
// resize-contention tests in internal/sem pin down.
package server

import (
	"sync"

	"haralick4d/internal/sem"
)

// budgets is the governor's configuration: global pools and per-job caps.
type budgets struct {
	TotalReadAhead int // global read-ahead credit pool
	TotalWorkers   int // global compute-admission pool
	JobReadAhead   int // per-job read-ahead quota (gate hi bound)
	JobWorkers     int // per-job compute quota (tokens hi bound)
}

// grant is one job's slice of the budgets.
type grant struct {
	gate   *sem.Sem // windows in flight over the job's readers
	tokens *sem.Sem // chunks being computed over its texture copies
}

type governor struct {
	mu      sync.Mutex
	cfg     budgets
	running map[int64]*grant
}

func newGovernor(cfg budgets) *governor {
	return &governor{cfg: cfg, running: map[int64]*grant{}}
}

// admit creates a job's gate and tokens at the post-admission fair share
// and shrinks everyone else to match.
func (g *governor) admit(id int64) *grant {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.running) + 1
	ra, w := g.share(n)
	gr := &grant{
		gate:   sem.New(ra, 1, g.cfg.JobReadAhead),
		tokens: sem.New(w, 1, g.cfg.JobWorkers),
	}
	g.running[id] = gr
	g.rebalanceLocked()
	return gr
}

// release returns a job's share to the pool and grows the survivors.
func (g *governor) release(id int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.running, id)
	g.rebalanceLocked()
}

// share computes the per-job allocation with n jobs running.
func (g *governor) share(n int) (readAhead, workers int) {
	if n < 1 {
		n = 1
	}
	clamp := func(total, quota int) int {
		s := total / n
		if s < 1 {
			s = 1
		}
		if s > quota {
			s = quota
		}
		return s
	}
	return clamp(g.cfg.TotalReadAhead, g.cfg.JobReadAhead), clamp(g.cfg.TotalWorkers, g.cfg.JobWorkers)
}

func (g *governor) rebalanceLocked() {
	ra, w := g.share(len(g.running))
	for _, gr := range g.running {
		gr.gate.Resize(ra)
		gr.tokens.Resize(w)
	}
}

// shares reports the current per-job allocation and running count (the
// /stats endpoint).
func (g *governor) shares() (readAhead, workers, jobs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ra, w := g.share(len(g.running))
	return ra, w, len(g.running)
}

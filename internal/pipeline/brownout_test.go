package pipeline

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// brownoutOracle computes the clean sequential reference for the brownout
// runs.
func brownoutOracle(t *testing.T, dir string) map[features.Feature]*volume.FloatGrid {
	t.Helper()
	clean, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sequential(clean, testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertCleanVoxels checks every output voxel outside the reported degraded
// ROIs against the oracle, bit for bit.
func assertCleanVoxels(t *testing.T, res *filters.Results, ref map[features.Feature]*volume.FloatGrid, feats []features.Feature) {
	t.Helper()
	_, rois, _ := res.Degraded()
	inROI := func(p [4]int) bool {
		for _, b := range rois {
			if b.Contains(p) {
				return true
			}
		}
		return false
	}
	outDims := ref[feats[0]].Dims
	for _, f := range feats {
		got, want := res.Grid(f), ref[f]
		if got == nil {
			t.Fatalf("%v: grid missing", f)
		}
		for tt := 0; tt < outDims[3]; tt++ {
			for z := 0; z < outDims[2]; z++ {
				for y := 0; y < outDims[1]; y++ {
					for x := 0; x < outDims[0]; x++ {
						if inROI([4]int{x, y, z, tt}) {
							continue
						}
						if g, w := got.At(x, y, z, tt), want.At(x, y, z, tt); g != w {
							t.Fatalf("%v: clean voxel (%d,%d,%d,%d) = %v, want %v", f, x, y, z, tt, g, w)
						}
					}
				}
			}
		}
	}
}

// runBrownout executes one serve-stale pipeline run against a blacked-out
// HTTP backend and returns the collected results and final backend stats.
// readAhead 0 serializes each reader's fetches (outputs are identical either
// way); texNodes places the texture copies.
func runBrownout(t *testing.T, dir string, bo http.RoundTripper, pol *resilience.Policy, readAhead int, texNodes []int) (*filters.Results, dataset.Stats) {
	t.Helper()
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()
	st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{
		HTTPClient:       &http.Client{Transport: bo},
		ResiliencePolicy: pol,
		ServeStale:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.ReadAhead = readAhead
	cfg.FaultPolicy = fault.SkipDegraded
	g, res, _, err := Build(st, cfg, &Layout{HMPNodes: texNodes})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(g, EngineLocal, &RunOptions{QueueBytes: queueBytes(cfg, 8), Failover: true})
	if err != nil {
		t.Fatalf("brownout run: %v", err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatalf("degraded accounting: %v", err)
	}
	// The resilience counters must flow into the run report's backend row.
	AttachBackendStats(rs.Report, st)
	if len(rs.Report.Backends) != 1 {
		t.Fatalf("report has %d backend entries, want 1", len(rs.Report.Backends))
	}
	be := rs.Report.Backends[0]
	if be.BreakerTrips < 1 || be.BreakerState == "" {
		t.Errorf("report backend breaker state %q trips %d, want a tripped breaker", be.BreakerState, be.BreakerTrips)
	}
	if be.StaleReads < 1 {
		t.Errorf("report backend stale reads = %d, want >= 1", be.StaleReads)
	}
	return res, st.Stats()
}

// darkSlices is the bounded brownout's backend: it answers everything but
// the slices whose file names carry one of the dark prefixes, keyed on slice
// identity so the set of lost slices is the same on every run. Two holds
// make the breaker and budget counters independent of how the three
// concurrent readers interleave. A request for a dark slice waits until every
// healthy slice has been answered: the breaker is shared, and a reader that
// reached its dark tail early would otherwise open it on a reader still in
// its healthy slices and take those down too (the old request-ordinal
// schedule lost every chunk that way in 4 runs of 100). Then the first dark
// request fails alone, and the others wait until its one funded retry has
// come back and failed as well: that read's second retry is then refused by
// the empty budget before a third consecutive failure can open the breaker
// and turn the refusal into a fast-fail.
type darkSlices struct {
	healthy int
	dark    []string

	mu     sync.Mutex
	cond   *sync.Cond
	served int    // healthy slices answered
	first  string // the dark request failed first; its retry ends the second hold
	free   bool   // second hold over: dark requests fail as they come
	fails  int64
}

func newDarkSlices(healthy int, dark ...string) *darkSlices {
	d := &darkSlices{healthy: healthy, dark: dark}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Failures reports how many requests reached the dark backend.
func (d *darkSlices) Failures() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fails
}

func (d *darkSlices) RoundTrip(req *http.Request) (*http.Response, error) {
	name := path.Base(req.URL.Path)
	isDark := false
	for _, p := range d.dark {
		isDark = isDark || strings.HasPrefix(name, p)
	}
	if !isDark {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err == nil && strings.HasPrefix(name, "slice_") {
			d.mu.Lock()
			d.served++
			d.cond.Broadcast()
			d.mu.Unlock()
		}
		return resp, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.served < d.healthy {
		d.cond.Wait()
	}
	switch {
	case d.first == "":
		d.first = name
	case name == d.first && !d.free:
		d.free = true
		d.cond.Broadcast()
	}
	for !d.free && name != d.first {
		d.cond.Wait()
	}
	d.fails++
	return nil, fmt.Errorf("GET %s from a dark backend (%d): %w", name, d.fails, fault.ErrInjected)
}

// TestBrownoutHTTPBackend is the chaos acceptance run for the resilience
// layer. Two phases of the same brownout:
//
// "bounded": the backend goes dark mid-run and never recovers. The breaker
// must open, the shared retry budget must cap the total traffic sent into
// the dead backend, serve-stale must convert the unavailable reads into
// degraded slices, and every voxel outside the reported ROIs must stay
// bit-identical to the clean oracle.
//
// "recovers": the blackout lifts after a fixed number of failed requests.
// Deterministic half-open probes must discover the recovery and close the
// breaker, and requests must flow again after the window.
//
// All fault scheduling is keyed on slice identity or request count (fixed
// seeds, no wall-clock windows), so the run is reproducible under -race.
func TestBrownoutHTTPBackend(t *testing.T) {
	feats := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin).Analysis.Features

	t.Run("bounded", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := dataset.Write(dir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 3); err != nil {
			t.Fatal(err)
		}
		ref := brownoutOracle(t, dir)
		// tokens below the per-read retry allowance (attempts-1 = 2): the
		// first failing read's second retry is denied no matter how the
		// readers interleave, so the denied counter is deterministic.
		const (
			consec    = 3
			tokens    = 1
			readers   = 3
			readAhead = 2
		)
		// A clean run of this configuration makes 52 requests — the header,
		// 3 node indexes and one GET per slice (48). The backend is dark for
		// the 12 slices of the last two time steps, the tail of every node's
		// index, which leaves 36 slices (75% of the data) and every chunk of
		// the first three time origins healthy; see darkSlices for why the
		// outcome does not depend on which reader is ahead.
		bo := newDarkSlices(36, "slice_t0006_", "slice_t0007_")
		pol := &resilience.Policy{
			// OpenFor far beyond the run: once open, the breaker stays open,
			// so every failure the backend sees is pre-trip traffic.
			Breaker: &resilience.BreakerConfig{ConsecFails: consec, OpenFor: time.Hour},
			Budget:  &resilience.BudgetConfig{Tokens: tokens, Ratio: 0},
		}
		res, stats := runBrownout(t, dir, bo, pol, readAhead, []int{4, 5, 6})

		_, _, voxels := res.Degraded()
		if voxels == 0 {
			t.Fatal("blackout degraded no voxels — the fault window never opened")
		}
		assertCleanVoxels(t, res, ref, feats)
		if stats.BreakerTrips < 1 {
			t.Errorf("breaker trips = %d, want >= 1", stats.BreakerTrips)
		}
		if stats.RetryBudgetDenied < 1 {
			t.Errorf("budget denied = %d, want >= 1 (some retry must have been refused)", stats.RetryBudgetDenied)
		}
		// The storm-proofing bound: traffic into the dead backend is at most
		// the consecutive-failure trip threshold, plus the whole retry
		// budget, plus the first attempts already in flight when the breaker
		// trips: a slice read is one request, and each reader keeps exactly
		// readAhead of them in flight. Without breaker + budget this would be
		// 36 requests (every dark slice times every retry attempt).
		limit := int64(consec + tokens + readAhead*readers)
		if got := bo.Failures(); got > limit {
			t.Errorf("blacked-out backend saw %d requests, want <= %d (budget-bounded)", got, limit)
		}
	})

	t.Run("recovers", func(t *testing.T) {
		// A single storage node + synchronous reads make the request stream
		// strictly sequential, and an injected counting clock (one tick per
		// open-state Allow) makes the probe schedule call-count-based, so the
		// whole failure schedule is deterministic: requests 1–16 (header,
		// index, 14 slice GETs) are answered, the 15th slice's GET fails its
		// 3 attempts (= FailN, consuming the blackout; = ConsecFails, tripping
		// the breaker), a fixed handful of reads fast-fail while the clock
		// ticks off OpenFor, then the half-open probe — itself the GET that
		// carries a slice — finds the recovered backend and closes the
		// circuit.
		dir := t.TempDir()
		if _, err := dataset.Write(dir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 1); err != nil {
			t.Fatal(err)
		}
		ref := brownoutOracle(t, dir)
		const failN = 3
		bo := &fault.BlackoutTransport{StartAfter: 16, FailN: failN}
		var ticks atomic.Int64
		clock := func() time.Time {
			return time.Unix(0, 0).Add(time.Duration(ticks.Add(1)) * 100 * time.Microsecond)
		}
		pol := &resilience.Policy{
			Breaker: &resilience.BreakerConfig{ConsecFails: 3, OpenFor: time.Millisecond, Clock: clock},
			Budget:  &resilience.BudgetConfig{Tokens: 2, Ratio: 0.1},
		}
		res, stats := runBrownout(t, dir, bo, pol, 0, []int{2, 3, 4})

		_, _, voxels := res.Degraded()
		if voxels == 0 {
			t.Fatal("blackout degraded no voxels — the fault window never opened")
		}
		assertCleanVoxels(t, res, ref, feats)
		if stats.BreakerProbes < 1 {
			t.Errorf("breaker probes = %d, want >= 1 (half-open must have probed)", stats.BreakerProbes)
		}
		if got := bo.Failures(); got < failN {
			t.Errorf("blackout consumed %d/%d failures — the backend never recovered in-run", got, failN)
		}
		if got := bo.OKs(); got <= bo.StartAfter {
			t.Errorf("backend answered %d requests, want > %d (traffic must resume after recovery)", got, bo.StartAfter)
		}
	})
}

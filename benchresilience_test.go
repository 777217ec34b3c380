package haralick4d

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
)

// resilienceBenchPolicy is the guarded configuration every resilience
// measurement uses: a fast-tripping breaker with quick half-open probes and
// a small shared retry budget. Hedging is left off — it changes latency
// distributions, not fault behavior, and would blur the overhead number.
func resilienceBenchPolicy(openFor time.Duration) *resilience.Policy {
	return &resilience.Policy{
		Breaker: &resilience.BreakerConfig{ConsecFails: 3, OpenFor: openFor},
		Budget:  &resilience.BudgetConfig{Tokens: 2, Ratio: 0},
	}
}

// faultedSweep reads every slice of every node, re-trying slices that failed
// on later passes until all have been read clean (or the deadline passes),
// and returns the elapsed wall time, the pass count, and how many individual
// read attempts returned an error. The retry-pending loop is what turns
// "time to read through a brownout" into a single elapsed number.
func faultedSweep(t *testing.T, st *dataset.Store, deadline time.Duration) (time.Duration, int, int) {
	t.Helper()
	ctx := context.Background()
	out := make([]uint16, st.Meta.Dims[0]*st.Meta.Dims[1])
	type sliceRef struct {
		node int
		ref  dataset.SliceRef
	}
	var pending []sliceRef
	for node := 0; node < st.Meta.Nodes; node++ {
		refs, err := st.NodeIndexContext(ctx, node)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			pending = append(pending, sliceRef{node, ref})
		}
	}
	start := time.Now()
	passes, readErrors := 0, 0
	for len(pending) > 0 && time.Since(start) < deadline {
		passes++
		var still []sliceRef
		for _, s := range pending {
			if err := st.ReadSliceIntoContext(ctx, s.node, s.ref, out); err != nil {
				readErrors++
				still = append(still, s)
			}
		}
		pending = still
	}
	if len(pending) > 0 {
		t.Fatalf("faulted sweep never drained: %d slices still unread after %v (%d passes)",
			len(pending), deadline, passes)
	}
	return time.Since(start), passes, readErrors
}

type resilienceBrownoutRow struct {
	ElapsedNS    int64 `json:"elapsed_ns"`
	Passes       int   `json:"passes"`
	ReadErrors   int   `json:"read_errors"`
	DeadRequests int64 `json:"dead_requests"`
	Trips        int64 `json:"trips,omitempty"`
	Probes       int64 `json:"probes,omitempty"`
}

// TestWriteResilienceBenchJSON measures what the resilience layer costs when
// nothing is failing and what it buys when the backend is: a fault-free
// whole-dataset sweep with the policy off versus on (overhead ≈ 0%), a
// permanent blackout ("blackhole") counting requests sent into the dead
// backend with naive per-read retries versus breaker + budget, and a
// recovering blackout ("brownout") timing how long each mode takes to read
// the dataset clean through the outage. Writes the numbers to the path in
// HARALICK4D_BENCH_RESILIENCE_OUT; used to produce the committed
// BENCH_resilience.json:
//
//	HARALICK4D_BENCH_RESILIENCE_OUT=$PWD/BENCH_resilience.json go test -run TestWriteResilienceBenchJSON
func TestWriteResilienceBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_RESILIENCE_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_RESILIENCE_OUT to regenerate BENCH_resilience.json")
	}
	dims := [4]int{96, 96, 8, 8}
	v := synthetic.Generate(synthetic.Config{Dims: dims, Seed: 11})
	dir := t.TempDir()
	if _, err := dataset.Write(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()

	open := func(rt http.RoundTripper, pol *resilience.Policy) *dataset.Store {
		t.Helper()
		uopts := &dataset.URLOptions{ResiliencePolicy: pol}
		if rt != nil {
			uopts.HTTPClient = &http.Client{Transport: rt}
		}
		st, err := dataset.OpenURL(context.Background(), srv.URL, uopts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Fault-free overhead: min of 3 sweeps, policy off vs on. The guarded
	// path adds one breaker Allow/Record and zero budget traffic per read.
	var baseline, guarded time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		st := open(nil, nil)
		d, _ := backendSweep(t, st)
		st.Close()
		if i == 0 || d < baseline {
			baseline = d
		}
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		st := open(nil, resilienceBenchPolicy(time.Hour))
		d, _ := backendSweep(t, st)
		st.Close()
		if i == 0 || d < guarded {
			guarded = d
		}
	}
	overheadPct := (float64(guarded)/float64(baseline) - 1) * 100

	// Blackhole: the backend goes dark after 11 answered requests — the
	// header, node 0's index and 9 slices, one GET each — and never comes
	// back; a single sweep pass, counting requests into the dead backend.
	// Naive mode retries every failed read to its attempt cap; the breaker
	// trips after 3 consecutive failures and fast-fails the rest.
	blackhole := func(pol *resilience.Policy) int64 {
		bo := &fault.BlackoutTransport{StartAfter: 11, FailN: 1 << 30}
		st := open(bo, pol)
		defer st.Close()
		ctx := context.Background()
		buf := make([]uint16, dims[0]*dims[1])
		for node := 0; node < st.Meta.Nodes; node++ {
			refs, err := st.NodeIndexContext(ctx, node)
			if err != nil {
				continue
			}
			for _, ref := range refs {
				_ = st.ReadSliceIntoContext(ctx, node, ref, buf) // errors expected
			}
		}
		return bo.Failures()
	}
	naiveDead := blackhole(nil)
	guardedDead := blackhole(resilienceBenchPolicy(time.Hour))

	// Brownout: the backend drops 12 requests after the same 11, then
	// recovers. The retry-pending sweep loops until every slice is read
	// clean; naive mode pays the full linear-backoff schedule for each
	// failed read, the guarded mode trips after one read and burns the rest
	// of the outage with cheap half-open probes.
	brownout := func(pol *resilience.Policy) resilienceBrownoutRow {
		bo := &fault.BlackoutTransport{StartAfter: 11, FailN: 12}
		st := open(bo, pol)
		defer st.Close()
		d, passes, readErrors := faultedSweep(t, st, 30*time.Second)
		s := st.Stats()
		return resilienceBrownoutRow{
			ElapsedNS:    int64(d),
			Passes:       passes,
			ReadErrors:   readErrors,
			DeadRequests: bo.Failures(),
			Trips:        s.BreakerTrips,
			Probes:       s.BreakerProbes,
		}
	}
	naiveBrown := brownout(nil)
	guardedBrown := brownout(resilienceBenchPolicy(100 * time.Microsecond))

	t.Logf("fault-free: baseline %v, guarded %v (%+.2f%%)", baseline, guarded, overheadPct)
	t.Logf("blackhole dead requests: naive %d, guarded %d", naiveDead, guardedDead)
	t.Logf("brownout: naive %v (%d errors), guarded %v (%d errors, %d trips, %d probes)",
		time.Duration(naiveBrown.ElapsedNS), naiveBrown.ReadErrors,
		time.Duration(guardedBrown.ElapsedNS), guardedBrown.ReadErrors,
		guardedBrown.Trips, guardedBrown.Probes)

	doc := struct {
		GeneratedBy string         `json:"generated_by"`
		Host        map[string]any `json:"host"`
		Workload    string         `json:"workload"`
		Policy      string         `json:"policy"`
		Results     struct {
			FaultFree struct {
				BaselineNS  int64   `json:"baseline_ns"`
				GuardedNS   int64   `json:"guarded_ns"`
				OverheadPct float64 `json:"overhead_pct"`
			} `json:"fault_free"`
			Blackhole struct {
				NaiveDeadRequests   int64 `json:"naive_dead_requests"`
				GuardedDeadRequests int64 `json:"guarded_dead_requests"`
			} `json:"blackhole"`
			Brownout struct {
				Naive   resilienceBrownoutRow `json:"naive"`
				Guarded resilienceBrownoutRow `json:"guarded"`
			} `json:"brownout"`
		} `json:"results"`
		Notes []string `json:"notes"`
	}{
		GeneratedBy: "go test -run TestWriteResilienceBenchJSON (HARALICK4D_BENCH_RESILIENCE_OUT)",
		Host: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Workload: "96x96x8x8 phantom on 3 storage nodes over an httptest HTTP backend; 64-slice whole-dataset sweeps; blackout windows are request-count based (dark after 11 answered requests: header, one index, 9 slices)",
		Policy:   "breaker: 3 consecutive failures, half-open probe after 100us (1h for the non-recovering rows); retry budget: 2 tokens, no replenish; hedging off",
		Notes: []string{
			"fault_free elapsed_ns are each the min of 3 sweeps; overhead_pct is the guarded sweep's cost over the plain sweep — the resilience path adds one breaker Allow/Record per read and no budget traffic while nothing fails",
			"blackhole counts transport requests into a permanently dark backend during one sweep pass: naive pays the full per-read retry schedule for every remaining slice, breaker + budget cap it at the trip threshold plus the budget",
			"brownout is the time-to-recover number: the backend drops 12 requests then heals, and the sweep re-reads failed slices until clean; naive burns the linear-backoff schedule on every dark read, the guarded mode trips once and spends the outage on half-open probes",
			"naive rows run with no ResiliencePolicy — the exact pre-resilience HTTPBackend behavior, so they double as the prior-PR baseline",
			"the same counters (trips/probes/budget/hedge) appear per-backend in RunReport.Backends for real pipeline runs",
		},
	}
	doc.Results.FaultFree.BaselineNS = int64(baseline)
	doc.Results.FaultFree.GuardedNS = int64(guarded)
	doc.Results.FaultFree.OverheadPct = overheadPct
	doc.Results.Blackhole.NaiveDeadRequests = naiveDead
	doc.Results.Blackhole.GuardedDeadRequests = guardedDead
	doc.Results.Brownout.Naive = naiveBrown
	doc.Results.Brownout.Guarded = guardedBrown

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

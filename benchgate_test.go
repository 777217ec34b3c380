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

// resilienceBenchDoc mirrors the parts of BENCH_resilience.json the shape
// pin and the gate read.
type resilienceBenchDoc struct {
	Host    map[string]any `json:"host"`
	Results struct {
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
}

func readResilienceBaseline(t *testing.T) *resilienceBenchDoc {
	t.Helper()
	raw, err := os.ReadFile("BENCH_resilience.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	var doc resilienceBenchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	return &doc
}

// TestResilienceBenchBaselineShape pins the committed BENCH_resilience.json
// contract: host metadata, positive fault-free sweep points with near-zero
// overhead (the breaker's per-read Allow/Record must stay in the noise), a
// blackhole row where breaker + budget cut dead-backend traffic to at most a
// quarter of the naive retry schedule, and a brownout row where the guarded
// sweep recovers faster than the naive one — the layer's two headline
// claims, recorded on the generating host.
func TestResilienceBenchBaselineShape(t *testing.T) {
	doc := readResilienceBaseline(t)
	for _, key := range []string{"cpus", "gomaxprocs", "go", "goos", "goarch"} {
		if _, ok := doc.Host[key]; !ok {
			t.Errorf("host metadata lacks %q", key)
		}
	}
	ff := doc.Results.FaultFree
	if ff.BaselineNS <= 0 || ff.GuardedNS <= 0 {
		t.Errorf("fault_free: non-positive sweep points (%d, %d)", ff.BaselineNS, ff.GuardedNS)
	}
	if ff.OverheadPct > 10 {
		t.Errorf("fault_free overhead %.2f%% > 10%% (regenerate BENCH_resilience.json — the claim is ~0%%)", ff.OverheadPct)
	}
	bh := doc.Results.Blackhole
	if bh.NaiveDeadRequests <= 0 || bh.GuardedDeadRequests <= 0 {
		t.Errorf("blackhole: non-positive request counts (%d, %d)", bh.NaiveDeadRequests, bh.GuardedDeadRequests)
	}
	if 4*bh.GuardedDeadRequests > bh.NaiveDeadRequests {
		t.Errorf("blackhole: guarded %d dead requests vs naive %d, want <= 1/4 (breaker + budget must cap the storm)",
			bh.GuardedDeadRequests, bh.NaiveDeadRequests)
	}
	br := doc.Results.Brownout
	for name, row := range map[string]resilienceBrownoutRow{"naive": br.Naive, "guarded": br.Guarded} {
		if row.ElapsedNS <= 0 || row.Passes <= 0 || row.ReadErrors <= 0 || row.DeadRequests <= 0 {
			t.Errorf("brownout.%s: incomplete row %+v", name, row)
		}
	}
	if br.Guarded.Trips < 1 || br.Guarded.Probes < 1 {
		t.Errorf("brownout.guarded: trips=%d probes=%d, want a tripped, probing breaker", br.Guarded.Trips, br.Guarded.Probes)
	}
	if br.Guarded.ElapsedNS >= br.Naive.ElapsedNS {
		t.Errorf("brownout: guarded recovery %v not faster than naive %v (regenerate BENCH_resilience.json)",
			time.Duration(br.Guarded.ElapsedNS), time.Duration(br.Naive.ElapsedNS))
	}
}

// TestResilienceBenchGate is the CI resilience regression gate: it replays
// the blackhole measurement live — a sweep into a permanently dark backend,
// naive versus breaker + budget — and requires the guarded request count to
// stay at its deterministic cap (trip threshold + retry budget). It also
// re-times the fault-free sweep both ways and bounds the guarded overhead at
// 50% — far above the ~0% baseline claim, so only a pathological slow path
// (e.g. budget contention on the read path) fails it, not host noise.
//
// Opt-in via HARALICK4D_BENCH_GATE=1 like the kernel gate.
func TestResilienceBenchGate(t *testing.T) {
	if os.Getenv("HARALICK4D_BENCH_GATE") == "" {
		t.Skip("set HARALICK4D_BENCH_GATE=1 to run the resilience regression gate")
	}
	doc := readResilienceBaseline(t)

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
		uopts := &dataset.URLOptions{Resilience: pol.NewSet()}
		if rt != nil {
			uopts.HTTPClient = &http.Client{Transport: rt}
		}
		st, err := dataset.OpenURL(context.Background(), srv.URL, uopts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Live blackhole replay: the guarded sweep is single-caller, so its
	// dead-request count is deterministic — the breaker's trip threshold
	// plus the retry budget.
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
				_ = st.ReadSliceIntoContext(ctx, node, ref, buf)
			}
		}
		return bo.Failures()
	}
	naiveDead := blackhole(nil)
	guardedDead := blackhole(resilienceBenchPolicy(time.Hour))
	const deadCap = 3 + 2 // ConsecFails + budget tokens of resilienceBenchPolicy
	t.Logf("blackhole dead requests: naive %d, guarded %d (cap %d, baseline %d/%d)",
		naiveDead, guardedDead, deadCap,
		doc.Results.Blackhole.NaiveDeadRequests, doc.Results.Blackhole.GuardedDeadRequests)
	if guardedDead > deadCap {
		t.Errorf("guarded blackhole sweep sent %d requests into the dead backend, want <= %d (breaker/budget cap broken)",
			guardedDead, deadCap)
	}
	if guardedDead*4 > naiveDead {
		t.Errorf("guarded blackhole traffic %d not under a quarter of naive %d", guardedDead, naiveDead)
	}

	// Live fault-free overhead, min of 3 each way.
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
	t.Logf("fault-free: baseline %v, guarded %v (%+.2f%%)",
		baseline, guarded, (float64(guarded)/float64(baseline)-1)*100)
	if float64(guarded) > 1.5*float64(baseline) {
		t.Errorf("fault-free guarded sweep %v > 1.5x baseline %v (resilience path added real per-read cost)",
			guarded, baseline)
	}
}

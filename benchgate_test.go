package haralick4d

import (
	"context"
	"encoding/json"
	"fmt"
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

// TestKernelBenchGate is the CI kernel-performance regression gate: it
// re-runs the blocked and legacy sliding row benchmarks and compares the
// blocked kernel's pairs/s against the committed BENCH_kernels.json
// baseline. Because CI hosts differ from the baseline host, the comparison
// is normalized by the legacy kernel's drift on the same run — the sliding
// kernel is untouched code, so its now/baseline ratio estimates the host
// speed difference. The gate fails when the blocked kernel retains less
// than 80% of its host-normalized baseline throughput.
//
// The gate is opt-in (set HARALICK4D_BENCH_GATE=1) so ordinary `go test`
// runs stay fast and unflaky; CI runs it in a dedicated step.
func TestKernelBenchGate(t *testing.T) {
	if os.Getenv("HARALICK4D_BENCH_GATE") == "" {
		t.Skip("set HARALICK4D_BENCH_GATE=1 to run the kernel bench regression gate")
	}
	raw, err := os.ReadFile("BENCH_kernels.json")
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var doc struct {
		Benchmarks []struct {
			Name        string  `json:"name"`
			Kernel      string  `json:"kernel"`
			PairsPerSec float64 `json:"pairs_per_sec"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	base := map[string]float64{}
	for _, b := range doc.Benchmarks {
		base[b.Name] = b.PairsPerSec
	}
	slidingBase, blockedBase := base["SlidingWindow"], base["BlockedRow"]
	if slidingBase <= 0 || blockedBase <= 0 {
		t.Fatal("baseline lacks SlidingWindow/BlockedRow pairs_per_sec rows")
	}

	slidingNow := testing.Benchmark(BenchmarkSlidingWindow).Extra["pairs/s"]
	blockedNow := testing.Benchmark(BenchmarkBlockedRow).Extra["pairs/s"]
	if slidingNow <= 0 || blockedNow <= 0 {
		t.Fatal("benchmark reported no pairs/s metric")
	}

	// Host normalization: scale the blocked baseline by how much the legacy
	// kernel moved on this host, then require 80% of that.
	norm := slidingNow / slidingBase
	want := 0.8 * blockedBase * norm

	row := func(name string, baseV, nowV float64) {
		t.Logf("%-16s %14.0f pairs/s (baseline) %14.0f pairs/s (now) %6.2fx",
			name, baseV, nowV, nowV/baseV)
	}
	row("SlidingWindow", slidingBase, slidingNow)
	row("BlockedRow", blockedBase, blockedNow)
	t.Logf("host norm (legacy drift) %.3f; gate: blocked >= %.0f pairs/s", norm, want)
	t.Logf("blocked/sliding now: %.2fx (baseline %.2fx)",
		blockedNow/slidingNow, blockedBase/slidingBase)

	if blockedNow < want {
		t.Errorf("blocked kernel regressed: %.0f pairs/s < %.0f (80%% of host-normalized baseline %.0f)",
			blockedNow, want, blockedBase*norm)
	}
}

// TestKernelBenchBaselineShape pins the committed BENCH_kernels.json
// contract the gate and docs rely on: parseable, kernel-tagged rows for
// both kernels, and a blocked row at least 2x the legacy sliding row — the
// blocked kernel's headline claim, recorded on the generating host.
func TestKernelBenchBaselineShape(t *testing.T) {
	raw, err := os.ReadFile("BENCH_kernels.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	var doc struct {
		Host       map[string]any `json:"host"`
		Benchmarks []struct {
			Name        string  `json:"name"`
			Kernel      string  `json:"kernel"`
			PairsPerSec float64 `json:"pairs_per_sec"`
		} `json:"benchmarks"`
		Speedups map[string]float64 `json:"speedups"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	for _, key := range []string{"cpus", "gomaxprocs", "go", "goos", "goarch"} {
		if _, ok := doc.Host[key]; !ok {
			t.Errorf("host metadata lacks %q", key)
		}
	}
	rows := map[string]string{}
	for _, b := range doc.Benchmarks {
		if b.Kernel != "legacy" && b.Kernel != "blocked" {
			t.Errorf("row %s: kernel %q is neither legacy nor blocked", b.Name, b.Kernel)
		}
		rows[b.Name] = b.Kernel
		if b.PairsPerSec <= 0 {
			t.Errorf("row %s: non-positive pairs_per_sec", b.Name)
		}
	}
	for name, kernel := range map[string]string{
		"SlidingWindow": "legacy", "BlockedRow": "blocked", "BlockedSparseRow": "blocked",
	} {
		if rows[name] != kernel {
			t.Errorf("row %s: kernel %q, want %q", name, rows[name], kernel)
		}
	}
	if s := doc.Speedups["blocked_row_vs_sliding_window"]; s < 2 {
		t.Errorf("blocked_row_vs_sliding_window = %.2f, want >= 2 (regenerate BENCH_kernels.json)", s)
	}
	if fmt.Sprintf("%v", doc.Host["cpus"]) == "0" {
		t.Error("host cpus metadata is zero")
	}
}

// backendBenchDoc mirrors the parts of BENCH_backend.json the shape pin and
// the cache gate read.
type backendBenchDoc struct {
	Host    map[string]any             `json:"host"`
	Results map[string]backendBenchRow `json:"results"`
}

func readBackendBaseline(t *testing.T) *backendBenchDoc {
	t.Helper()
	raw, err := os.ReadFile("BENCH_backend.json")
	if err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	var doc backendBenchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("committed baseline: %v", err)
	}
	return &doc
}

// TestBackendBenchBaselineShape pins the committed BENCH_backend.json
// contract: host metadata, one row per backend (local, mem, http), each row
// carrying positive uncached/cold/warm points and cache counters, and the
// headline claim — the http backend's warm-cache sweep beats its uncached
// sweep by at least 2x on the generating host.
func TestBackendBenchBaselineShape(t *testing.T) {
	doc := readBackendBaseline(t)
	for _, key := range []string{"cpus", "gomaxprocs", "go", "goos", "goarch"} {
		if _, ok := doc.Host[key]; !ok {
			t.Errorf("host metadata lacks %q", key)
		}
	}
	for _, name := range []string{"local", "mem", "http"} {
		row, ok := doc.Results[name]
		if !ok {
			t.Errorf("results lack backend %q", name)
			continue
		}
		for pname, p := range map[string]backendBenchPoint{
			"uncached": row.Uncached, "cache_cold": row.CacheCold, "cache_warm": row.CacheWarm,
		} {
			if p.ElapsedNS <= 0 || p.MBPerS <= 0 {
				t.Errorf("%s.%s: non-positive elapsed_ns/mb_per_s (%d, %f)", name, pname, p.ElapsedNS, p.MBPerS)
			}
		}
		if row.CacheHits <= 0 || row.CacheMisses <= 0 {
			t.Errorf("%s: cache counters not recorded (hits=%d misses=%d)", name, row.CacheHits, row.CacheMisses)
		}
	}
	if http := doc.Results["http"]; http.CacheWarm.ElapsedNS > 0 {
		ratio := float64(http.Uncached.ElapsedNS) / float64(http.CacheWarm.ElapsedNS)
		if ratio < 2 {
			t.Errorf("http warm-cache speedup %.2fx < 2x (regenerate BENCH_backend.json)", ratio)
		}
	}
}

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

// TestBackendBenchGate is the CI cache-effectiveness regression gate: it
// replays the http backend's measurement live — a ranged-GET sweep of a
// small dataset, uncached versus through a warm block cache — and requires
// the warm-cache speedup to retain at least a quarter of the committed
// baseline's ratio (floored at 2x). The wide margin absorbs host noise; a
// broken cache (every warm read going back to the server) fails by an order
// of magnitude, not by percents.
//
// Opt-in via HARALICK4D_BENCH_GATE=1 like the kernel gate.
func TestBackendBenchGate(t *testing.T) {
	if os.Getenv("HARALICK4D_BENCH_GATE") == "" {
		t.Skip("set HARALICK4D_BENCH_GATE=1 to run the backend cache regression gate")
	}
	doc := readBackendBaseline(t)
	base := doc.Results["http"]
	if base.Uncached.ElapsedNS <= 0 || base.CacheWarm.ElapsedNS <= 0 {
		t.Fatal("baseline lacks http uncached/cache_warm rows")
	}
	baseRatio := float64(base.Uncached.ElapsedNS) / float64(base.CacheWarm.ElapsedNS)
	want := 0.25 * baseRatio
	if want < 2 {
		want = 2
	}

	dims := [4]int{96, 96, 8, 8}
	v := synthetic.Generate(synthetic.Config{Dims: dims, Seed: 11})
	dir := t.TempDir()
	if _, err := dataset.Write(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()

	open := func(cacheBlocks int) *dataset.Store {
		t.Helper()
		st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{CacheBlocks: cacheBlocks})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var uncached, warm time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		st := open(0)
		d, _ := backendSweep(t, st)
		st.Close()
		if i == 0 || d < uncached {
			uncached = d
		}
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		st := open(256)
		backendSweep(t, st) // cold fill
		d, _ := backendSweep(t, st)
		if s := st.Stats(); s.CacheHits == 0 {
			t.Fatalf("warm sweep recorded no cache hits (misses=%d)", s.CacheMisses)
		}
		st.Close()
		if i == 0 || d < warm {
			warm = d
		}
	}
	ratio := float64(uncached) / float64(warm)
	t.Logf("http uncached %v, warm %v: %.2fx (baseline %.2fx, gate >= %.2fx)",
		uncached, warm, ratio, baseRatio, want)
	if ratio < want {
		t.Errorf("http warm-cache speedup regressed: %.2fx < %.2fx (25%% of baseline %.2fx, floored at 2x)",
			ratio, want, baseRatio)
	}
}

// Command bench is the repository's end-to-end benchmark. It builds the four
// commands from source, drives them the way their users do (the haralick4d
// CLI as a subprocess, the `haralick4d serve` daemon over HTTP), checks every
// output, and prints each metric by name with its unit. README.md in this
// directory describes the workloads, the metrics and the noise policy;
// BENCHMARK.json at the repository root is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. The lists below and BENCHMARK.json
// must agree; TestBenchmarkJSONAgrees checks it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{{"wall_s", "s"}, {"roi_per_s", "ROI/s"}, {"setup_s", "s"}}

var perLayer = []metricDef{
	{"glcm.blocked_pairs_per_s", "pairs/s"}, {"glcm.sparse_pairs_per_s", "pairs/s"}, {"glcm.nonzero_per_matrix", "count"},
	{"features.ns_per_matrix_full", "ns"}, {"features.ns_per_matrix_sparse", "ns"},
	{"core.roi_per_s_w2", "ROI/s"}, {"core.oracle_roi_per_s", "ROI/s"}, {"core.scale_eff", "ratio"},
	{"dataset.local_read_mb_per_s", "MB/s"}, {"dataset.http_read_ms_per_slice", "ms"},
	{"dataset.http_requests_per_slice", "count"}, {"dataset.backend_reads", "count"}, {"dataset.backend_read_mb", "MB"},
	{"readahead.overlap_ratio", "ratio"},
	{"volume.chunk_plan_us", "us"}, {"volume.read_amplification", "ratio"},
	{"filters.wire_encode_mb_per_s", "MB/s"}, {"filters.wire_bytes_per_roi", "count"}, {"filters.uso_write_mb_per_s", "MB/s"},
	{"filters.rfr_read_share", "ratio"}, {"filters.rfr_read_wait_share", "ratio"}, {"filters.iic_assemble_share", "ratio"},
	{"filters.texture_compute_share", "ratio"}, {"filters.out_write_share", "ratio"}, {"filters.pool_hit_ratio", "ratio"},
	{"filter.local_msgs_per_s", "1/s"}, {"filter.tcp_mb_per_s", "MB/s"},
	{"filter.send_wait_share", "ratio"}, {"filter.recv_wait_share", "ratio"}, {"filter.wire_mb", "MB"}, {"filter.copy_imbalance", "ratio"},
	{"pipeline.build_ms", "ms"}, {"pipeline.accounted_share", "ratio"},
	{"checkpoint.append_us", "us"}, {"checkpoint.sync_ms", "ms"},
	{"server.start_ready_ms", "ms"}, {"server.submit_ack_ms", "ms"}, {"server.queue_wait_s", "s"},
	{"server.turnaround_p50_s", "s"}, {"server.drain_ms", "ms"}, {"server.cpu_us_per_roi", "us"},
	{"metrics.trace_overhead_pct", "%"},
	{"harness.cpu_s", "s"}, {"harness.peak_rss_mb", "MB"},
	{"harness.wall_med_s", "s"}, {"harness.wall_iqr_s", "s"}, {"harness.warmup_s", "s"},
	{"harness.build_s", "s"}, {"harness.loadavg_start", "count"},
}

// The values of -trace.
const (
	traceOff  = 0 // end-to-end metrics only: full set-up passes and timed reps
	traceOnly = 1 // per-layer metrics only: one set-up pass, half the timed reps
	traceBoth = 2 // everything, for a person reading the numbers
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	reps      int
	scale     string
	out       string
	keep      bool
	selfcheck bool
}

// harness holds what every step of one invocation shares.
type harness struct {
	root, out, work string
	seed            int64
	tiny, keep      bool
	procs           *procs
	trace           tracer
	buildS          float64
	loadStart       float64
	// microShared holds the layer micro-timings that do not depend on the
	// workload, measured once per invocation.
	microShared map[string]float64
}

func (h *harness) bin(name string) string { return filepath.Join(h.out, "bin", name) }

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload alone (default: all four, reps interleaved)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated datasets, passed to gendata only")
	flag.IntVar(&o.seconds, "seconds", 12, "measure timed reps of each workload for at least this long")
	flag.IntVar(&o.trace, "trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics only; 2: both")
	flag.IntVar(&o.reps, "reps", 0, "timed reps per workload (default: as many as -seconds needs, at least 3)")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny: every workload on a 24x24x4x4 dataset (smoke test)")
	flag.StringVar(&o.out, "out", "", "output directory (default bench/out)")
	flag.BoolVar(&o.keep, "keep", false, "keep the generated datasets and job outputs")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run everything twice and compare the end-to-end metrics with their bounds")
	flag.Parse()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	os.Exit(code)
}

// findRoot returns the repository root, from the root itself or from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "haralick4d", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root: cmd/haralick4d not found")
}

func run(o options) (int, error) {
	var ws []*workload
	switch {
	case o.workload == "":
		ws = workloads
	case findWorkload(o.workload) == nil:
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	default:
		ws = []*workload{findWorkload(o.workload)}
	}
	if o.scale != "full" && o.scale != "tiny" {
		return 2, fmt.Errorf("unknown scale %q", o.scale)
	}
	if o.trace < traceOff || o.trace > traceBoth || o.seconds < 1 || o.reps < 0 {
		return 2, fmt.Errorf("-trace is 0, 1 or 2; -seconds at least 1; -reps not negative")
	}
	root, err := findRoot()
	if err != nil {
		return 1, err
	}
	h := &harness{root: root, out: o.out, seed: o.seed, tiny: o.scale == "tiny", keep: o.keep, procs: newProcs()}
	h.trace.epoch = time.Now()
	if h.out == "" {
		h.out = filepath.Join(root, "bench", "out")
	}
	if h.out, err = filepath.Abs(h.out); err != nil {
		return 1, err
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return 1, err
	}
	if h.work, err = os.MkdirTemp(h.out, "work-"); err != nil {
		return 1, err
	}
	cleanup := func() {
		h.procs.killAll()
		if !h.keep {
			os.RemoveAll(h.work)
		}
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	host := hostInfo(root, o.seed)
	h.loadStart = host.LoadavgStart
	if host.LoadavgStart > 0.5 {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-minute load average is %.2f; timings will be noisy\n", host.LoadavgStart)
	}
	if err := h.build(); err != nil {
		return 1, err
	}

	first := h.measure(ws, o)
	host.LoadavgEnd = loadavg()
	doc := resultsFile{Host: host, Scale: o.scale, Trace: o.trace, Workloads: first}
	code := 0
	if o.selfcheck {
		second := h.measure(ws, o)
		doc.SecondPass = second
		doc.Selfcheck, err = selfcheck(root, first, second)
		if err != nil {
			return 1, err
		}
		for _, row := range doc.Selfcheck {
			if !row.Within {
				code = 1
			}
		}
	}
	if err := writeJSON(filepath.Join(h.out, "results.json"), doc); err != nil {
		return 1, err
	}
	for _, res := range first {
		printResult(res)
		if !res.Correct {
			code = 1
		}
	}
	printSelfcheck(doc.Selfcheck)
	if len(first) == 1 {
		// The contract line: last on standard output, one workload per run.
		line, err := json.Marshal(contractLine(first[0], o.trace))
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
	}
	return code, nil
}

// build compiles the four commands once into out/bin.
func (h *harness) build() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(h.out, "bin")+string(filepath.Separator),
		"./cmd/haralick4d", "./cmd/gendata", "./cmd/dataserve", "./cmd/usostitch")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	return nil
}

// result is everything one workload produced in one pass over the schedule.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// The samples the end-to-end statistics were taken from.
	WallS  []float64 `json:"wall_s_samples"`
	CPUS   []float64 `json:"cpu_s_samples"`
	RSSMB  []float64 `json:"peak_rss_mb_samples"`
	SetupS []float64 `json:"setup_s_samples"`
}

// state is a workload's progress through the schedule.
type state struct {
	w       *workload
	dims    [4]int
	res     *result
	site    *site
	ref     *usoSum // the first output; every later rep must equal it
	warmupS float64
	timed   time.Duration
	serve   []*serveTimes
	traced  *repResult
}

func (st *state) fail(ops int, err error) {
	st.res.Failed += ops
	st.res.Errors = append(st.res.Errors, err.Error())
	fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
}

// record books one rep: its operations, its failures, and whether its output
// equals the workload's first output. It reports whether the rep is usable.
func (st *state) record(r repResult) bool {
	ops := st.w.ops()
	st.res.Attempted += ops
	if r.err != nil {
		st.fail(r.failed, r.err)
		return false
	}
	if st.ref == nil {
		st.ref = &r.sum
	} else if r.sum != *st.ref {
		st.fail(ops, fmt.Errorf("%s: output checksum %x over %d ROIs differs from the first rep's %x over %d",
			st.w.name, r.sum.hash, r.sum.rois, st.ref.hash, st.ref.rois))
		return false
	}
	if r.serve != nil {
		st.serve = append(st.serve, r.serve)
	}
	return true
}

// measure runs the schedule once over the workloads: the oracle comparison
// and the set-up passes of each, the timed reps interleaved round-robin so a
// burst of interference cannot cover all reps of one workload, then the
// traced rep of each and the layer micro-timings.
func (h *harness) measure(ws []*workload, o options) []*result {
	setups, minReps, budget := 3, 3, time.Duration(o.seconds)*time.Second
	if o.trace == traceOnly {
		setups, minReps, budget = 1, 2, budget/2
	}
	if h.tiny {
		setups = 1
	}
	var states []*state
	for _, w := range ws {
		st := &state{w: w, dims: w.dims, res: &result{Workload: w.name}}
		if h.tiny {
			st.dims = tinyDims
		}
		states = append(states, st)
		h.oracle(st)
		for pass := 0; pass < setups; pass++ {
			h.setup(st, pass)
		}
	}
	for rep := 0; ; rep++ {
		ran := false
		for _, st := range states {
			done := st.timed >= budget && rep >= minReps
			if o.reps > 0 {
				done = rep >= o.reps
			}
			if done || st.site == nil {
				continue
			}
			ran = true
			r := h.rep(st.site, fmt.Sprintf("timed-%d", rep+1), false, nil)
			if !st.record(r) {
				st.site = nil // a workload that fails is not measured further
				continue
			}
			st.timed += r.wall
			st.res.WallS = append(st.res.WallS, r.wall.Seconds())
			st.res.CPUS = append(st.res.CPUS, r.cpu.Seconds())
			st.res.RSSMB = append(st.res.RSSMB, r.rssMB)
		}
		if !ran {
			break
		}
	}
	for _, st := range states {
		if st.site != nil && o.trace != traceOff {
			r := h.rep(st.site, "traced", true, nil)
			if st.record(r) {
				st.traced = &r
			}
		}
		h.release(st.site)
	}
	var results []*result
	for _, st := range states {
		st.finish()
		if st.res.Correct && o.trace != traceOff {
			h.layers(st)
		}
		results = append(results, st.res)
	}
	return results
}

// oracle runs a 24x24x4x4 dataset through the workload's configuration and
// through the sequential oracle (one texture copy, one kernel worker, local
// engine, full matrices), stitches both outputs with usostitch and compares
// the stitched series byte for byte.
func (h *harness) oracle(st *state) {
	w := st.w
	s, err := h.prepare(w, tinyDims)
	defer h.release(s)
	if err != nil {
		st.fail(0, fmt.Errorf("%s: oracle set-up: %w", w.name, err))
		return
	}
	outDims := outputDims(tinyDims, w.roi)
	want := filepath.Join(s.dir, "oracle")
	args := append(append([]string{}, w.analysis...), "-data", s.data, "-texture", "1", "-kernel-workers", "1")
	st.res.Attempted++
	if r := h.cliRep(args, outDims, want, w.name+"/oracle", false); r.err != nil {
		st.fail(1, r.err)
		return
	}
	r := h.rep(s, "oracle-check", false, func(outs []string) error {
		for i, out := range outs {
			if err := h.stitchedEqual(out, want, outDims, fmt.Sprintf("%s-stitch-%d", out, i)); err != nil {
				return fmt.Errorf("%s: against the sequential oracle: %w", w.name, err)
			}
		}
		return nil
	})
	st.res.Attempted += w.ops()
	if r.err != nil {
		st.fail(r.failed, r.err)
	}
}

// setup is one full set-up pass: dataset, helper, and one complete warm-up
// job that fills the page cache. The last pass's site serves the timed reps.
func (h *harness) setup(st *state, pass int) {
	start := time.Now()
	s, err := h.prepare(st.w, st.dims)
	if err != nil {
		h.release(s)
		st.fail(0, fmt.Errorf("%s: set-up: %w", st.w.name, err))
		return
	}
	r := h.rep(s, fmt.Sprintf("warmup-%d", pass+1), false, nil)
	h.release(st.site)
	st.site = nil
	if !st.record(r) {
		h.release(s)
		return
	}
	st.site = s
	st.warmupS = r.wall.Seconds()
	st.res.SetupS = append(st.res.SetupS, time.Since(start).Seconds())
}

// finish turns a workload's timed samples into its end-to-end metrics.
func (st *state) finish() {
	res := st.res
	res.Correct = len(res.Errors) == 0 && len(res.WallS) > 0 && len(res.SetupS) > 0 // every failure leaves an error
	if !res.Correct {
		return
	}
	rois := float64(st.w.ops() * st.w.jobROIs(st.dims))
	// Interference on a shared host only ever adds time, so the least wall and
	// set-up time are the steadiest estimates.
	wall := minOf(res.WallS)
	res.EndToEnd = map[string]float64{"wall_s": wall, "roi_per_s": rois / wall, "setup_s": minOf(res.SetupS)}
}

// layers measures what the traced rep did not already give (the micro-timings
// and, for workloads without a daemon, a daemon probe), assembles the
// per-layer metrics and writes the workload's trace file.
func (h *harness) layers(st *state) {
	res := st.res
	micro, err := h.runMicro(st.w, st.dims)
	if err != nil {
		st.fail(0, err)
	}
	serve := st.serve
	if !st.w.daemon {
		serve = h.probeDaemon(st)
	}
	res.PerLayer = micro
	for name, v := range reportMetrics(st.traced.reports) {
		res.PerLayer[name] = v
	}
	for name, v := range serverMetrics(serve) {
		res.PerLayer[name] = v
	}
	res.PerLayer["metrics.trace_overhead_pct"] = 100 * (st.traced.wall.Seconds()/res.EndToEnd["wall_s"] - 1)
	res.PerLayer["harness.cpu_s"] = median(res.CPUS)
	res.PerLayer["harness.peak_rss_mb"] = median(res.RSSMB)
	res.PerLayer["harness.wall_med_s"] = median(res.WallS)
	res.PerLayer["harness.wall_iqr_s"] = iqr(res.WallS)
	res.PerLayer["harness.warmup_s"] = st.warmupS
	res.PerLayer["harness.build_s"] = h.buildS
	res.PerLayer["harness.loadavg_start"] = h.loadStart
	tf := traceFile{Workload: st.w.name, Spans: st.traced.spans, Reports: st.traced.reports}
	if err := writeJSON(filepath.Join(h.out, "trace-"+st.w.name+".json"), tf); err != nil {
		st.fail(0, err)
	}
	res.Correct = len(res.Errors) == 0
}

// probeDaemon gives the workloads that do not use the daemon their server.*
// numbers: one burst on a 24x24x4x4 dataset against a fresh daemon.
func (h *harness) probeDaemon(st *state) []*serveTimes {
	w := findWorkload("serve-uso")
	s, err := h.prepare(w, tinyDims)
	defer h.release(s)
	if err != nil {
		st.fail(0, fmt.Errorf("daemon probe: %w", err))
		return nil
	}
	r := h.rep(s, "probe", false, nil)
	st.res.Attempted += w.ops()
	if r.err != nil {
		st.fail(r.failed, r.err)
		return nil
	}
	return []*serveTimes{r.serve}
}

// serverMetrics summarizes the harness's spans around the daemon's HTTP API
// over all bursts of a run.
func serverMetrics(bursts []*serveTimes) map[string]float64 {
	if len(bursts) == 0 {
		return nil
	}
	var ready, ack, wait, turn, drain []time.Duration
	var cpu time.Duration
	rois := 0
	for _, b := range bursts {
		ready = append(ready, b.startReady)
		ack = append(ack, b.ack...)
		wait = append(wait, b.queueWait...)
		turn = append(turn, b.turnaround...)
		drain = append(drain, b.drain)
		cpu += b.cpu
		rois += b.rois
	}
	return map[string]float64{
		"server.start_ready_ms":   1e3 * median(seconds(ready)),
		"server.submit_ack_ms":    1e3 * median(seconds(ack)),
		"server.queue_wait_s":     sum(seconds(wait)) / float64(len(wait)),
		"server.turnaround_p50_s": median(seconds(turn)),
		"server.drain_ms":         1e3 * median(seconds(drain)),
		"server.cpu_us_per_roi":   1e6 * cpu.Seconds() / float64(rois),
	}
}

// hostBlock says where and on what the numbers were taken.
type hostBlock struct {
	NumCPU          int     `json:"nproc"`
	ChildGOMAXPROCS int     `json:"child_gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	GOARCH          string  `json:"goarch"`
	Kernel          string  `json:"kernel"`
	GitSHA          string  `json:"git_sha"`
	Seed            int64   `json:"seed"`
	LoadavgStart    float64 `json:"loadavg_start"`
	LoadavgEnd      float64 `json:"loadavg_end"`
	// Undersized marks a host with fewer processors than the children are
	// told to use; the run goes ahead, its timings mean less.
	Undersized bool `json:"undersized"`
}

func hostInfo(root string, seed int64) hostBlock {
	hb := hostBlock{
		NumCPU: runtime.NumCPU(), ChildGOMAXPROCS: childProcs, GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Kernel: "unknown", GitSHA: "unknown", Seed: seed, LoadavgStart: loadavg(),
		Undersized: runtime.NumCPU() < childProcs,
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		hb.Kernel = strings.TrimSpace(string(data))
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil { // not a git checkout: stays unknown
		hb.GitSHA = strings.TrimSpace(string(out))
	}
	return hb
}

// loadavg is the 1-minute load average, 0 where /proc does not tell.
func loadavg() float64 {
	var v float64
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(data), &v)
	}
	return v
}

type resultsFile struct {
	Host       hostBlock      `json:"host"`
	Scale      string         `json:"scale"`
	Trace      int            `json:"trace"`
	Workloads  []*result      `json:"workloads"`
	SecondPass []*result      `json:"second_pass,omitempty"` // of -selfcheck
	Selfcheck  []selfcheckRow `json:"selfcheck,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printResult(res *result) {
	fmt.Printf("== %s: %d operations attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, group := range []struct {
		defs   []metricDef
		values map[string]float64
	}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
		for _, d := range group.defs {
			if v, ok := group.values[d.name]; ok {
				fmt.Printf("%-16s %-34s %14.6g %s\n", res.Workload, d.name, v, d.unit)
			}
		}
	}
}

// contractLine is the JSON object BENCHMARK.json's driver reads from the last
// line of standard output.
func contractLine(res *result, trace int) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	add := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			if v, ok := values[d.name]; ok {
				out[d.name] = value{v, d.unit}
			}
		}
	}
	if trace != traceOnly {
		add(endToEnd, res.EndToEnd)
	}
	if trace != traceOff {
		add(perLayer, res.PerLayer)
	}
	return map[string]any{
		"correct": res.Correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": out,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// selfcheckRow compares one end-to-end metric of one workload between two
// passes over the schedule on the same binaries.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"` // |second - first| / first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func selfcheck(root string, first, second []*result) ([]selfcheckRow, error) {
	b, err := readBenchmarkJSON(root)
	if err != nil {
		return nil, err
	}
	var rows []selfcheckRow
	for i, a := range first {
		for _, m := range b.EndToEnd {
			row := selfcheckRow{Workload: a.Workload, Metric: m.Name, Bound: m.Bound,
				First: a.EndToEnd[m.Name], Second: second[i].EndToEnd[m.Name]}
			if row.First > 0 {
				row.RelDiff = math.Abs(row.Second-row.First) / row.First
				row.Within = row.RelDiff <= row.Bound
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func printSelfcheck(rows []selfcheckRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Println("== selfcheck: two passes on the same binaries")
	for _, r := range rows {
		verdict := "ok"
		if !r.Within {
			verdict = "OUTSIDE BOUND"
		}
		fmt.Printf("%-16s %-12s %12.6g %12.6g %7.2f%% bound %4.0f%% %s\n",
			r.Workload, r.Metric, r.First, r.Second, 100*r.RelDiff, 100*r.Bound, verdict)
	}
}

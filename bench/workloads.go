package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/volume"
)

// workload is one fixed job of the benchmark. Every job runs with two texture
// copies of two kernel workers each and streams its output to disk as USO
// record files; what differs is stated in args and the two switches.
type workload struct {
	name string
	why  string
	dims [4]int // dataset dimensions at full scale
	roi  [4]int
	// analysis are the CLI flags that define the result (the sequential
	// oracle gets them too); args select how it is computed.
	analysis []string
	args     []string
	// remote serves the dataset through dataserve with 30 ms injected
	// latency and reads it by URL.
	remote bool
	// daemon submits burst jobs to a fresh `haralick4d serve` per rep; spec
	// is the job's JSON besides the dataset.
	daemon bool
	spec   map[string]any
}

// serveBurst is the number of jobs one daemon rep submits; the daemon runs
// two at a time and queues the other two.
const serveBurst = 4

// tinyDims is the dataset of -scale tiny and of the oracle comparison.
var tinyDims = [4]int{24, 24, 4, 4}

var paperROI = [4]int{16, 16, 3, 3}

var workloads = []*workload{
	{
		name: "paper-local",
		why:  "the paper's RFR-IIC-HMP-USO pipeline on a local dataset, full matrices, 40 directions: compute-bound in the blocked GLCM kernel and feature math",
		dims: [4]int{112, 112, 9, 9}, roi: paperROI,
	},
	{
		name: "remote-latency",
		why:  "512 small slices read over HTTP behind 30 ms injected latency with a thin kernel: I/O-bound in the backend and read-ahead, so a compute gain must not show",
		dims: [4]int{64, 64, 32, 16}, roi: [4]int{4, 4, 2, 2},
		analysis: []string{"-roi", "4x4x2x2", "-gray", "8", "-ndim", "2"},
		remote:   true,
	},
	{
		name: "split-tcp",
		why:  "the same kernels used the other way: sparse matrices, HCC-HPC split, loopback TCP engine with the binary wire codec carrying the matrix batches",
		dims: [4]int{112, 112, 8, 8}, roi: paperROI,
		args: []string{"-engine", "tcp", "-impl", "split", "-rep", "sparse"},
	},
	{
		name: "serve-uso",
		why:  "a closed burst of 4 jobs against a fresh daemon that runs 2 at a time: journal, admission queue, governor, per-job checkpoints, USO sink and drain",
		dims: [4]int{72, 72, 8, 8}, roi: paperROI,
		daemon: true,
		spec:   map[string]any{"output": "uso", "texture": 2, "kernel_workers": 2},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobROIs is the number of output ROIs one analysis job writes.
func (w *workload) jobROIs(dims [4]int) int { return volume.NumVoxels(outputDims(dims, w.roi)) }

// ops is the number of operations (analysis jobs) in one rep.
func (w *workload) ops() int {
	if w.daemon {
		return serveBurst
	}
	return 1
}

// site is one prepared set-up of a workload: its dataset and, for remote
// workloads, the server in front of it.
type site struct {
	w      *workload
	dims   [4]int
	dir    string // everything of this set-up lives here
	data   string
	url    string
	helper *exec.Cmd
	reps   int
}

// prepare generates the dataset into a fresh directory and starts the helper
// the workload needs. The warm-up job is run by the caller.
func (h *harness) prepare(w *workload, dims [4]int) (*site, error) {
	dir, err := os.MkdirTemp(h.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	s := &site{w: w, dims: dims, dir: dir, data: filepath.Join(dir, "data")}
	if err := h.procs.run(h.bin("gendata"), "-out", s.data, "-dims", dimString(dims),
		"-nodes", "4", "-seed", fmt.Sprint(h.seed)); err != nil {
		return s, err
	}
	if w.remote {
		ready := filepath.Join(dir, "addr")
		s.helper, err = h.procs.start(h.bin("dataserve"), nil, os.Stderr,
			"-dir", s.data, "-latency", "30ms", "-addr", "localhost:0", "-ready", ready)
		if err != nil {
			return s, err
		}
		var addr []byte
		if err := waitFor("dataserve ready file", func() bool {
			addr, _ = os.ReadFile(ready)
			return bytes.HasSuffix(addr, []byte("\n"))
		}); err != nil {
			return s, err
		}
		s.url = "http://" + strings.TrimSpace(string(addr))
	}
	return s, nil
}

func (h *harness) release(s *site) {
	if s == nil {
		return
	}
	if s.helper != nil {
		h.procs.stop(s.helper)
	}
	if !h.keep {
		os.RemoveAll(s.dir)
	}
}

// repResult is what one rep of a workload measured.
type repResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	failed int    // operations of this rep that failed
	sum    usoSum // of the rep's whole output
	err    error  // why operations failed
	// Filled for every daemon rep, and for CLI reps only when traced.
	spans   []span
	reports map[string]*metrics.RunReport // by job identifier
	serve   *serveTimes
}

// rep runs one rep of the site's workload: one CLI job, or one daemon burst.
// label names the rep in span and job identifiers. inspect, when not nil,
// sees the output directories of the rep's jobs before they are removed.
func (h *harness) rep(s *site, label string, traced bool, inspect func(outs []string) error) repResult {
	s.reps++
	dir := filepath.Join(s.dir, fmt.Sprintf("rep-%d", s.reps))
	defer func() {
		if !h.keep {
			os.RemoveAll(dir)
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return repResult{failed: s.w.ops(), err: err}
	}
	job := s.w.name + "/" + label
	var r repResult
	var outs []string
	if s.w.daemon {
		r, outs = h.serveRep(s, dir, job)
	} else {
		args := append(append([]string{}, s.w.analysis...), s.w.args...)
		if s.w.remote {
			args = append(args, "-dataset-url", s.url)
		} else {
			args = append(args, "-data", s.data)
		}
		args = append(args, "-texture", "2", "-kernel-workers", "2")
		outs = []string{filepath.Join(dir, "uso")}
		r = h.cliRep(args, outputDims(s.dims, s.w.roi), outs[0], job, traced)
	}
	if want := s.w.ops() * s.w.jobROIs(s.dims); r.err == nil && r.sum.rois != want {
		r.err = fmt.Errorf("%s: %d output ROIs, want %d", job, r.sum.rois, want)
	}
	if r.err == nil && inspect != nil {
		r.err = inspect(outs)
	}
	if r.err != nil && r.failed == 0 {
		r.failed = s.w.ops()
	}
	return r
}

// cliRep runs one `haralick4d` analysis streaming USO records into out, and
// sums them. When traced it asks for the run report and stamps the CLI's two
// progress lines, which bound the engine run inside the process lifetime.
func (h *harness) cliRep(args []string, outDims [4]int, out, job string, traced bool) repResult {
	var r repResult
	report := out + "-report.json"
	args = append(args, "-format", "uso", "-out", out)
	var stdout io.Writer // nil: the child writes to the null device
	var lines *lineStamper
	if traced {
		args = append(args, "-metrics-json", report)
		lines = &lineStamper{}
		stdout = lines
	}
	var stderr logBuffer
	start := time.Now()
	cmd, err := h.procs.start(h.bin("haralick4d"), stdout, &stderr, args...)
	if err != nil {
		r.err = err
		return r
	}
	u, err := h.procs.wait(cmd)
	exit := time.Now()
	r.wall, r.cpu, r.rssMB = exit.Sub(start), u.cpu, u.rssMB
	if err != nil {
		r.err = fmt.Errorf("%s: %w\n%s", job, err, stderr.text())
		return r
	}
	r.sum, r.err = sumUSODir(out, outDims)
	if !traced || r.err != nil {
		return r
	}
	verified := time.Now()
	root := h.trace.add(&r.spans, 0, job, "rep", start, verified)
	run := h.trace.add(&r.spans, root, job, "job", start, exit)
	running, done := lines.seen("dataset"), lines.seen("done")
	if !running.IsZero() && !done.IsZero() {
		h.trace.add(&r.spans, run, job, "startup", start, running)
		h.trace.add(&r.spans, run, job, "engine", running, done)
		h.trace.add(&r.spans, run, job, "teardown", done, exit)
	}
	h.trace.add(&r.spans, root, job, "verify", exit, verified)
	var rep metrics.RunReport
	if data, err := os.ReadFile(report); err != nil {
		r.err = err
	} else if err := json.Unmarshal(data, &rep); err != nil {
		r.err = fmt.Errorf("%s: run report: %w", job, err)
	}
	r.reports = map[string]*metrics.RunReport{job: &rep}
	return r
}

// lineStamper records when the first line starting with each word arrived.
type lineStamper struct {
	mu    sync.Mutex
	part  []byte
	first map[string]time.Time
}

func (l *lineStamper) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.first == nil {
		l.first = map[string]time.Time{}
	}
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		if word, _, ok := strings.Cut(string(l.part[:i]), " "); ok {
			if _, dup := l.first[word]; !dup {
				l.first[word] = now
			}
		}
		l.part = l.part[i+1:]
	}
}

func (l *lineStamper) seen(word string) time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first[word]
}

// serveTimes are the harness-side spans around the daemon's HTTP API for one
// rep, one entry per job where plural.
type serveTimes struct {
	startReady time.Duration   // spawn -> "listening on"
	ack        []time.Duration // POST /jobs sent -> 202 read
	queueWait  []time.Duration // ack -> first seen running (or completed)
	turnaround []time.Duration // POST sent -> first seen completed
	drain      time.Duration   // SIGTERM -> exit
	cpu        time.Duration
	rois       int
}

// jobView is the part of the daemon's job JSON the harness reads.
type jobView struct {
	ID     int64              `json:"id"`
	State  string             `json:"state"`
	Error  string             `json:"error"`
	Report *metrics.RunReport `json:"report"`
}

// daemon is one running `haralick4d serve`.
type daemon struct {
	cmd          *exec.Cmd
	logs         logBuffer
	base         string // http://host:port
	spawn, ready time.Time
}

// startDaemon starts a daemon on a free port with a fresh state directory and
// waits for the log line that names the bound address.
func (h *harness) startDaemon(stateDir string) (*daemon, error) {
	d := &daemon{spawn: time.Now()}
	var err error
	d.cmd, err = h.procs.start(h.bin("haralick4d"), nil, &d.logs, "serve",
		"-serve-addr", "127.0.0.1:0", "-state-dir", stateDir, "-max-jobs", "2")
	if err != nil {
		return nil, err
	}
	if err := waitFor("daemon listening", func() bool {
		d.base = listening(d.logs.text())
		return d.base != ""
	}); err != nil {
		h.procs.stop(d.cmd)
		return nil, fmt.Errorf("%w\n%s", err, d.logs.text())
	}
	d.ready = time.Now()
	return d, nil
}

// jobTimes are the moments the harness saw one daemon job change state.
type jobTimes struct {
	id                              int64
	sent, acked, running, completed time.Time
	report                          *metrics.RunReport
}

// burst submits serveBurst copies of spec over one connection, then polls the
// job list every 10 ms over a second connection until all have completed.
func (d *daemon) burst(spec map[string]any) ([]*jobTimes, error) {
	submitter := &http.Client{Timeout: waitLimit, Transport: &http.Transport{MaxConnsPerHost: 1}}
	poller := &http.Client{Timeout: waitLimit, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var jobs []*jobTimes
	byID := map[int64]*jobTimes{}
	for i := 0; i < serveBurst; i++ {
		j := &jobTimes{sent: time.Now()}
		var v jobView
		if err := postJSON(submitter, d.base+"/jobs", body, &v); err != nil {
			return jobs, fmt.Errorf("submit: %w", err)
		}
		j.id, j.acked = v.ID, time.Now()
		jobs = append(jobs, j)
		byID[j.id] = j
	}
	deadline := jobs[0].sent.Add(waitLimit)
	for pending := len(jobs); pending > 0; time.Sleep(10 * time.Millisecond) {
		var views []jobView
		if err := getJSON(poller, d.base+"/jobs", &views); err != nil {
			return jobs, fmt.Errorf("poll: %w", err)
		}
		now := time.Now()
		for _, v := range views {
			j := byID[v.ID]
			if j == nil || !j.completed.IsZero() || v.State == "queued" {
				continue
			}
			if v.State != "running" && v.State != "completed" {
				return jobs, fmt.Errorf("job %d is %s: %s", v.ID, v.State, v.Error)
			}
			if j.running.IsZero() {
				j.running = now
			}
			if v.State == "completed" {
				j.completed, j.report = now, v.Report
				pending--
			}
		}
		if pending > 0 && now.After(deadline) {
			return jobs, fmt.Errorf("%d jobs not completed within %v", pending, waitLimit)
		}
	}
	return jobs, nil
}

// serveRep runs one burst against a fresh daemon and drains it with SIGTERM.
// wall is first POST to last job seen completed; cpu and rss are the
// daemon's over its whole life.
func (h *harness) serveRep(s *site, dir, job string) (r repResult, outs []string) {
	d, err := h.startDaemon(filepath.Join(dir, "state"))
	if err != nil {
		r.err = fmt.Errorf("%s: %w", job, err)
		return
	}
	spec := map[string]any{"dataset": s.data}
	for k, v := range s.w.spec {
		spec[k] = v
	}
	jobs, err := d.burst(spec)
	if err != nil {
		r.err = fmt.Errorf("%s: %w\n%s", job, err, d.logs.text())
	}
	term := time.Now()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // a daemon already gone fails the wait below
	u, err := h.procs.wait(d.cmd)
	exit := time.Now()
	r.cpu, r.rssMB = u.cpu, u.rssMB
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("%s: drain: %w\n%s", job, err, d.logs.text())
	}
	if r.err != nil {
		return
	}
	first, last := jobs[0].sent, jobs[0].completed
	for _, j := range jobs {
		if j.completed.After(last) {
			last = j.completed
		}
	}
	r.wall = last.Sub(first)

	verify := time.Now()
	for _, j := range jobs {
		out := filepath.Join(dir, "state", "out", fmt.Sprintf("job-%d", j.id))
		outs = append(outs, out)
		sum, err := sumUSODir(out, outputDims(s.dims, s.w.roi))
		if err != nil {
			r.failed++
			r.err = err
			continue
		}
		r.sum.rois += sum.rois
		r.sum.hash += sum.hash
	}

	st := &serveTimes{startReady: d.ready.Sub(d.spawn), drain: exit.Sub(term), cpu: u.cpu, rois: r.sum.rois}
	r.serve = st
	r.reports = map[string]*metrics.RunReport{}
	verified := time.Now()
	root := h.trace.add(&r.spans, 0, job, "rep", d.spawn, verified)
	life := h.trace.add(&r.spans, root, job, "daemon", d.spawn, exit)
	h.trace.add(&r.spans, life, job, "start_ready", d.spawn, d.ready)
	burst := h.trace.add(&r.spans, life, job, "burst", first, last)
	for _, j := range jobs {
		jid := fmt.Sprintf("%s/job-%d", job, j.id)
		r.reports[jid] = j.report
		id := h.trace.add(&r.spans, burst, jid, "job", j.sent, j.completed)
		h.trace.add(&r.spans, id, jid, "submit", j.sent, j.acked)
		h.trace.add(&r.spans, id, jid, "queued", j.acked, j.running)
		h.trace.add(&r.spans, id, jid, "running", j.running, j.completed)
		st.ack = append(st.ack, j.acked.Sub(j.sent))
		st.queueWait = append(st.queueWait, j.running.Sub(j.acked))
		st.turnaround = append(st.turnaround, j.completed.Sub(j.sent))
	}
	h.trace.add(&r.spans, life, job, "drain", term, exit)
	h.trace.add(&r.spans, root, job, "verify", verify, verified)
	return
}

// listening returns the base URL from the daemon's "server: listening on URL"
// log line once the line is complete, "" before.
func listening(log string) string {
	_, rest, ok := strings.Cut(log, "listening on ")
	if !ok {
		return ""
	}
	url, _, complete := strings.Cut(rest, "\n")
	if !complete {
		return ""
	}
	return strings.TrimSpace(url)
}

func postJSON(c *http.Client, url string, body []byte, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return readJSON(resp, http.StatusAccepted, into)
}

func getJSON(c *http.Client, url string, into any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return readJSON(resp, http.StatusOK, into)
}

func readJSON(resp *http.Response, want int, into any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d: %s", resp.Request.URL, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

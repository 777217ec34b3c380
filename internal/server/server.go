// Package server implements the haralick4d analysis daemon: an HTTP/JSON
// control plane over the filter-stream pipeline that runs many analyses
// concurrently, each exactly the run the CLI runs for the same spec.
//
// The control API:
//
//	POST /jobs              submit a Spec          → 202 + job, 429 when saturated
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         one job + live progress / final report
//	GET  /jobs/{id}/events  NDJSON stream of state + progress events
//	POST /jobs/{id}/cancel  abort (queued, running, paused or parked)
//	POST /jobs/{id}/pause   checkpoint and stop; resumable
//	POST /jobs/{id}/resume  re-queue a paused/parked/failed job
//	GET  /healthz           liveness ("ok" / "draining")
//	GET  /stats             scheduler + resilience counters
//
// Robustness contract: every submission and state transition is appended
// to a CRC-framed job journal before the API acknowledges it, so a daemon
// killed with SIGKILL restarts with the same job table, re-admits the jobs
// that were queued, running or parked, and resumes each from its per-job
// checkpoint — producing output bit-identical to an uninterrupted run.
// SIGTERM takes the graceful path: Drain stops admissions, parks running
// jobs (cancel + checkpoint), and returns once they are journaled.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
)

// Config parameterizes a daemon.
type Config struct {
	// Addr is the listen address for ListenAndServe (e.g. "localhost:7474").
	Addr string
	// StateDir holds the job journal, per-job checkpoints and default
	// output directories. Required.
	StateDir string
	// MaxJobs bounds concurrently running jobs (default 2).
	MaxJobs int
	// MaxQueue bounds the admission queue; a submit beyond it is shed with
	// 429 + Retry-After (default 16).
	MaxQueue int
	// DrainTimeout bounds how long Drain waits for running jobs to park
	// (default 30s).
	DrainTimeout time.Duration
	// StallTimeout is the per-job watchdog default when a spec leaves
	// stall_timeout empty; 0 disables.
	StallTimeout time.Duration
	// ProgressInterval is the live-progress sampling cadence (default 500ms).
	ProgressInterval time.Duration
	// SyncInterval is the job journal's fsync cadence (default 1s).
	SyncInterval time.Duration
	// Resilience, when non-nil, arms circuit breakers / retry budgets /
	// hedged reads for every job's remote backend, shared per backend host
	// across jobs. A submit naming a host whose breaker is open is shed with
	// 503 + Retry-After instead of admitted into a known brownout.
	Resilience *resilience.Policy
	// Logf sinks daemon logs (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.StateDir == "" {
		return fmt.Errorf("server: StateDir is required")
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Server is one daemon instance.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[int64]*Job
	order    []int64 // submission order, for listing
	queue    []int64 // admitted, waiting for a run slot
	running  int
	nextID   int64
	draining bool
	closed   bool

	jour *checkpoint.Log
	hub  *hub
	res  *resilience.Registry // nil when Config.Resilience is off
	wg   sync.WaitGroup       // one per running job
}

// New opens (or creates) the daemon state under cfg.StateDir, replays the
// job journal, re-admits recovered in-flight jobs and starts as many as
// the scheduler allows. The caller serves s.Handler() and must Close.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	jour, recovered, nextID, err := openJournal(filepath.Join(cfg.StateDir, "jobs.journal"), cfg.SyncInterval)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		jobs:   map[int64]*Job{},
		nextID: nextID,
		jour:   jour,
		hub:    newHub(),
		res:    resilience.NewRegistry(cfg.Resilience),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range recovered {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		// In flight when the last life ended (SIGKILL, or a drain that
		// parked it): re-admit, resuming from the per-job checkpoint when
		// the output mode can honour one.
		if s.transitionLocked(j, evRecover, nil) {
			s.cfg.Logf("server: recovered job %d (re-queued, resume=%v)", j.ID, j.Resume)
		} else if j.State == StateQueued {
			s.queue = append(s.queue, j.ID)
			s.cfg.Logf("server: recovered job %d (queued)", j.ID)
		}
	}
	s.scheduleLocked()
	return s, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleStop(evCancel))
	mux.HandleFunc("POST /jobs/{id}/pause", s.handleStop(evPause))
	mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// ListenAndServe serves the API on cfg.Addr until ctx is canceled, then
// drains and shuts down. It logs the bound address, so Addr may use port 0.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.cfg.Logf("server: listening on http://%s", ln.Addr())
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("server: shutdown requested, draining (timeout %v)", s.cfg.DrainTimeout)
	derr := s.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(sctx)
	if cerr := s.closeJournal(); derr == nil {
		derr = cerr
	}
	return derr
}

// Drain stops admissions, parks every running job (cancel + checkpoint)
// and waits up to DrainTimeout for them to reach a journaled state.
// Queued jobs stay queued in the journal and restart with the next life.
func (s *Server) Drain() error {
	s.mu.Lock()
	s.draining = true
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateRunning && j.cancel != nil {
			j.reason = evPark
			j.cancel()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return s.jour.Sync()
	case <-time.After(s.cfg.DrainTimeout):
		return fmt.Errorf("server: drain timed out after %v with jobs still running", s.cfg.DrainTimeout)
	}
}

// Close drains and closes the journal. Safe to call twice.
func (s *Server) Close() error {
	err := s.Drain()
	if cerr := s.closeJournal(); err == nil {
		err = cerr
	}
	return err
}

func (s *Server) closeJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.jour.Close()
}

// ---- scheduling ----

// scheduleLocked starts queued jobs while run slots are free. Caller holds
// the mutex.
func (s *Server) scheduleLocked() {
	for !s.draining && s.running < s.cfg.MaxJobs && len(s.queue) > 0 {
		id := s.queue[0]
		j := s.jobs[id]
		if !s.transitionLocked(j, evStart, nil) {
			s.queue = s.queue[1:] // not queued any more; cannot happen
			continue
		}
		// The job's wall-clock budget covers its whole run, from the dataset
		// open on, so an expired job fails with "deadline_exceeded" instead
		// of hanging.
		ctx, cancel := pipeline.WithDeadline(context.Background(), &j.Spec)
		j.reason = ""
		j.cancel = cancel
		j.Progress = metrics.Progress{}
		s.running++
		spec, resume := j.Spec, j.Resume
		s.wg.Add(1)
		go func() {
			defer cancel() // release the deadline timer once the run ends
			s.run(j, ctx, spec, resume)
		}()
	}
}

// run hosts one job's runner goroutine and records its final transition.
func (s *Server) run(j *Job, ctx context.Context, spec Spec, resume bool) {
	defer s.wg.Done()
	report, restart, err := s.runJob(ctx, j.ID, spec, resume)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.cancel = nil
	ev := j.reason
	switch {
	case err == nil:
		ev = evDone
		j.Report = report
		if restart != nil {
			j.Restart = restart
		}
	case ev == "":
		ev = evFail
		s.cfg.Logf("server: job %d failed (%s): %v", j.ID, errKind(err), err)
	}
	s.transitionLocked(j, ev, err)
	s.scheduleLocked()
}

// setProgress records a live snapshot summary and fans it out.
func (s *Server) setProgress(id int64, p metrics.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.State != StateRunning {
		return
	}
	j.Progress = p
	s.hub.publish(Event{Type: "progress", JobID: id, State: j.State, Progress: &p})
}

// journalStateLocked appends a state record and publishes the transition.
// Journal failures are logged, not fatal: the in-memory state machine stays
// authoritative for this life, and the next restart surfaces the gap.
func (s *Server) journalStateLocked(j *Job) {
	if err := appendState(s.jour, j); err != nil {
		s.cfg.Logf("server: journal: %v", err)
	}
	s.hub.publish(Event{Type: "state", JobID: j.ID, State: j.State, Error: j.Err, Kind: j.ErrKind})
}

// ---- HTTP handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSubmit(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if after, open := s.breakerOpenFor(spec.Dataset); open {
		// Admission shedding: the spec's backend is in a known brownout —
		// admitting the job would only burn a run slot failing fast.
		w.Header().Set("Retry-After", strconv.Itoa(after))
		httpError(w, http.StatusServiceUnavailable, "backend %s circuit open; retry in ~%ds", resilienceKey(spec.Dataset), after)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining: no new admissions")
		return
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		// Bounded-queue admission control: shed this submit instead of
		// degrading every running job.
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full (%d queued, %d running)", s.cfg.MaxQueue, s.cfg.MaxJobs)
		return
	}
	j := &Job{ID: s.nextID, Spec: spec, State: StateQueued}
	if err := appendSubmit(s.jour, j); err != nil {
		// An unjournaled job would vanish on restart; refuse it.
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.queue = append(s.queue, j.ID)
	s.hub.publish(Event{Type: "state", JobID: j.ID, State: j.State})
	s.scheduleLocked()
	v := j.snapshotView()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]view, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].snapshotView())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	v := j.snapshotView()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

// handleStop answers a cancel or pause. A running job is asked to stop —
// its run's end applies the edge (202); any other job takes the edge at
// once (200) or has none (409).
func (s *Server) handleStop(ev event) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(w, r)
		if !ok {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case j.State == StateRunning:
			j.reason = ev
			j.cancel()
			writeJSON(w, http.StatusAccepted, j.snapshotView())
		case s.transitionLocked(j, ev, nil):
			writeJSON(w, http.StatusOK, j.snapshotView())
		default:
			httpError(w, http.StatusConflict, "job %d is %s", j.ID, j.State)
		}
	}
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		httpError(w, http.StatusServiceUnavailable, "draining: no new admissions")
		return
	}
	if !s.transitionLocked(j, evResume, nil) {
		httpError(w, http.StatusConflict, "job %d is %s", j.ID, j.State)
		return
	}
	s.scheduleLocked()
	writeJSON(w, http.StatusAccepted, j.snapshotView())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)

	s.mu.Lock()
	sub := s.hub.subscribe(j.ID)
	first := Event{Type: "state", JobID: j.ID, State: j.State, Error: j.Err, Kind: j.ErrKind}
	if j.Progress != (metrics.Progress{}) {
		p := j.Progress
		first.Progress = &p
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.hub.unsubscribe(sub)
		s.mu.Unlock()
	}()

	send := func(ev Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		// The stream ends at a terminal state; a cancel's final
		// transition arrives through the hub like any other.
		return !(ev.Type == "state" && ev.State.Terminal())
	}
	if !send(first) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.ch:
			if !send(ev) {
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		fmt.Fprintln(w, "draining")
	} else {
		fmt.Fprintln(w, "ok")
	}
	// One line per tracked backend so a probe (or a human) sees a brownout
	// without parsing /stats JSON.
	snap := s.res.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if st := snap[k]; st.BreakerState != "" {
			fmt.Fprintf(w, "breaker %s: %s\n", k, st.BreakerState)
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type stats struct {
		Jobs       map[State]int                  `json:"jobs"`
		QueueLen   int                            `json:"queue_len"`
		Running    int                            `json:"running"`
		MaxJobs    int                            `json:"max_jobs"`
		MaxQueue   int                            `json:"max_queue"`
		Draining   bool                           `json:"draining"`
		Resilience map[string]resilience.SetStats `json:"resilience,omitempty"`
	}
	st := stats{Jobs: map[State]int{}, Resilience: s.res.Snapshot()}
	s.mu.Lock()
	for _, j := range s.jobs {
		st.Jobs[j.State]++
	}
	st.QueueLen = len(s.queue)
	st.Running = s.running
	st.MaxJobs = s.cfg.MaxJobs
	st.MaxQueue = s.cfg.MaxQueue
	st.Draining = s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// ---- resilience plumbing ----

// resilienceKey maps a dataset URL to its shared-state registry key: the
// backend origin for remote datasets, "" (no shared state) for local paths.
func resilienceKey(rawurl string) string {
	u, err := url.Parse(rawurl)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return ""
	}
	return u.Scheme + "://" + u.Host
}

// resilienceFor returns the shared resilience set every job against this
// dataset's backend host uses, or nil when resilience is off or the dataset
// is local.
func (s *Server) resilienceFor(rawurl string) *resilience.Set {
	if s.res == nil {
		return nil
	}
	key := resilienceKey(rawurl)
	if key == "" {
		return nil
	}
	return s.res.For(key)
}

// breakerOpenFor reports whether the dataset's backend breaker is currently
// open, and if so how many whole seconds remain until its next probe (at
// least 1, for a Retry-After header).
func (s *Server) breakerOpenFor(rawurl string) (afterSec int, open bool) {
	in := s.resilienceFor(rawurl).ProbeIn()
	if in <= 0 {
		// Closed/half-open — or open with the probe due. An elapsed-open
		// breaker reports "open" until an Allow promotes it, and the only
		// Allow callers are admitted jobs' backend reads: once nothing is
		// running against this host, shedding here would leave the breaker
		// unprobed (and the host shed) forever. Admit the submission so its
		// first read performs the half-open probe.
		return 0, false
	}
	return max(int(in/time.Second), 1), true
}

// ---- small helpers ----

// lookup resolves {id}; it writes the error response itself on failure.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid job id %q", r.PathValue("id"))
		return nil, false
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return nil, false
	}
	return j, true
}

// dequeueLocked removes a job id from the admission queue.
func (s *Server) dequeueLocked(id int64) {
	for i, q := range s.queue {
		if q == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Job model: the submitted analysis spec, the job lifecycle and the
// failure taxonomy the daemon reports instead of dying.
//
// The lifecycle is one table, transitions below; every state change the
// daemon makes is one of its edges, applied by transitionLocked:
//
//	          submit               start (slot free)
//	(client) ───────▶ queued ─────────────────────▶ running
//	                   │ cancel, pause                 │ done, fail, cancel,
//	                   ▼                               ▼ pause, park (drain)
//	          canceled, paused        completed, failed, canceled, paused, parked
//
// resume moves paused, parked and failed jobs back to queued; recover does
// the same for running and parked jobs found in the journal on startup
// (queued ones are re-queued as they are, paused ones stay paused — that
// state was asked for). completed and canceled have no way out; failed
// leaves only by a client's resume. A running job asked to stop is not
// moved by the request: the request records why and cancels the run, and
// the run's end applies the edge.
package server

import (
	"context"
	"errors"
	"io"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/runspec"
)

// State is one node of the job lifecycle state machine.
type State string

// The seven job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StatePaused    State = "paused"    // client-requested stop; checkpointed, resumable
	StateParked    State = "parked"    // drain-requested stop; re-admitted on restart
	StateCompleted State = "completed" // terminal
	StateFailed    State = "failed"    // terminal for the scheduler; resumable by the client
	StateCanceled  State = "canceled"  // terminal
)

// Terminal reports whether the scheduler is done with a job in this state.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// event is one edge label of the lifecycle table.
type event string

const (
	evStart   event = "start"   // the scheduler gave the job a run slot
	evDone    event = "done"    // the run returned nil
	evFail    event = "fail"    // the run returned an error nobody asked for
	evCancel  event = "cancel"  // a client cancel
	evPause   event = "pause"   // a client pause
	evPark    event = "park"    // a drain stopped the run
	evResume  event = "resume"  // a client resume
	evRecover event = "recover" // startup found the job in flight
)

// transitions is the job lifecycle: transitions[from][ev] is the state ev
// moves a job in from to; a missing entry means ev does not apply.
var transitions = map[State]map[event]State{
	StateQueued: {evStart: StateRunning, evCancel: StateCanceled, evPause: StatePaused},
	StateRunning: {evDone: StateCompleted, evFail: StateFailed, evCancel: StateCanceled,
		evPause: StatePaused, evPark: StateParked, evRecover: StateQueued},
	StatePaused: {evCancel: StateCanceled, evResume: StateQueued},
	StateParked: {evCancel: StateCanceled, evResume: StateQueued, evRecover: StateQueued},
	StateFailed: {evResume: StateQueued},
}

// reachable reports whether a job in from can be in to after zero or more
// edges. Replay accepts a state record only if its state is reachable from
// the job's replayed one: appends are not fatal (journalStateLocked), so a
// record may be missing, but none can lead back out of completed or
// canceled.
func reachable(from, to State) bool {
	seen := map[State]bool{from: true}
	for frontier := []State{from}; len(frontier) > 0; frontier = frontier[1:] {
		if frontier[0] == to {
			return true
		}
		for _, next := range transitions[frontier[0]] {
			if !seen[next] {
				seen[next] = true
				frontier = append(frontier, next)
			}
		}
	}
	return false
}

// Spec is the client-submitted description of one analysis job: the run
// spec the CLI's flags and the library's Options also describe, with the
// same keys, defaults and validation (internal/runspec).
type Spec = runspec.Spec

// checkpointable reports whether the job's output mode supports a durable
// progress journal (JPEG stitching holds no durable portions).
func checkpointable(sp *Spec) bool { return sp.Output != runspec.OutputJPEG }

// decodeSubmit reads a POST /jobs body: strict JSON (a misspelt key is an
// error, not a silent default), the run spec's Validate, then what only a
// daemon job requires — a dataset. Replaying the journal decodes leniently
// instead (see replay).
func decodeSubmit(r io.Reader) (Spec, error) {
	sp, err := runspec.DecodeJSON(r)
	if err != nil {
		return sp, err
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	if sp.Dataset == "" {
		return sp, errors.New("spec: dataset is required")
	}
	return sp, nil
}

// Job is one tracked analysis. All mutable fields are guarded by the
// server's mutex; the runner only touches them through server methods.
type Job struct {
	ID    int64
	Spec  Spec
	State State
	// Err/ErrKind describe the last failure (State failed, or the abort
	// reason recorded for paused/parked).
	Err     string
	ErrKind string
	// Resume marks that the next run should reopen the job's checkpoint.
	Resume bool
	// Progress is the latest live snapshot summary while running.
	Progress metrics.Progress
	// Report is the structured run report of the last completed run.
	Report *metrics.RunReport
	// Restart summarizes what a resumed run recovered.
	Restart *pipeline.RestartSummary

	// Runtime control, set while State is running.
	cancel context.CancelFunc
	reason event // evCancel, evPause or evPark: why cancel() was called
}

// view is the JSON shape of a job in API responses.
type view struct {
	ID       int64                    `json:"id"`
	State    State                    `json:"state"`
	Spec     Spec                     `json:"spec"`
	Error    string                   `json:"error,omitempty"`
	ErrKind  string                   `json:"error_kind,omitempty"`
	Resume   bool                     `json:"resume,omitempty"`
	Progress *metrics.Progress        `json:"progress,omitempty"`
	Report   *metrics.RunReport       `json:"report,omitempty"`
	Restart  *pipeline.RestartSummary `json:"restart,omitempty"`
}

// snapshotView renders the job for the API. Caller holds the server mutex.
func (j *Job) snapshotView() view {
	v := view{
		ID: j.ID, State: j.State, Spec: j.Spec,
		Error: j.Err, ErrKind: j.ErrKind, Resume: j.Resume,
		Report: j.Report, Restart: j.Restart,
	}
	if j.Progress != (metrics.Progress{}) {
		p := j.Progress
		v.Progress = &p
	}
	return v
}

// errKind maps a run error onto the daemon's failure taxonomy — the typed
// states the API reports instead of an opaque string (or a dead daemon).
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, filter.ErrStalled):
		return "stalled"
	case errors.Is(err, filter.ErrAllCopiesDead):
		return "all_copies_dead"
	case errors.Is(err, dataset.ErrBackendUnavailable):
		return "backend_unavailable"
	case errors.Is(err, dataset.ErrDegradedData):
		return "degraded_data"
	case errors.Is(err, dataset.ErrBadHeader):
		return "bad_header"
	case errors.Is(err, checkpoint.ErrMismatch):
		return "checkpoint_mismatch"
	case errors.Is(err, checkpoint.ErrCorrupt):
		return "checkpoint_corrupt"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// transitionLocked applies the edge ev to j, if the table has one, and
// reports whether it did. It keeps the job's fields, the admission queue,
// the journal and the event stream in step with the new state: Resume is
// cleared into completed and canceled and set to checkpointable into
// paused, parked, failed and (by resume or recover) queued; an edge out of
// running records the run's error (runErr, for fail and cancel) or clears
// it. Caller holds the server mutex.
func (s *Server) transitionLocked(j *Job, ev event, runErr error) bool {
	from := j.State
	to, ok := transitions[from][ev]
	if !ok {
		return false
	}
	j.State = to
	switch to {
	case StateCompleted, StateCanceled:
		j.Resume = false
	case StatePaused, StateParked, StateFailed, StateQueued:
		j.Resume = checkpointable(&j.Spec)
	}
	if from == StateRunning {
		j.Err, j.ErrKind = "", ""
		switch {
		case runErr == nil:
		case ev == evFail:
			j.Err, j.ErrKind = runErr.Error(), errKind(runErr)
		case ev == evCancel:
			j.Err, j.ErrKind = runErr.Error(), "canceled"
		}
	}
	if from == StateQueued {
		s.dequeueLocked(j.ID)
	}
	if to == StateQueued {
		s.queue = append(s.queue, j.ID)
	}
	s.journalStateLocked(j)
	return true
}

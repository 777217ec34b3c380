// Job model: the submitted analysis spec, the job state machine and the
// failure taxonomy the daemon reports instead of dying.
//
// States and transitions:
//
//	          submit                 slot free
//	(client) ───────▶ queued ─────────────────────▶ running
//	                    │  cancel                      │
//	                    ▼                              │ run returns
//	                canceled ◀── reason=cancel ────────┤
//	                 paused  ◀── reason=pause ─────────┤   (resume ▶ queued)
//	                 parked  ◀── reason=park (drain) ──┤   (restart/resume ▶ queued)
//	               completed ◀── err == nil ───────────┤
//	                  failed ◀── otherwise ────────────┘   (resume ▶ queued)
//
// completed, failed and canceled are terminal for the daemon's scheduler;
// failed, paused and parked can be re-queued by POST /jobs/{id}/resume, and
// non-terminal jobs found in the journal on startup are re-admitted
// automatically (paused ones stay paused — that state was asked for).
package server

import (
	"context"
	"errors"
	"fmt"
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

// valid reports whether s is one of the seven states (journal replay guard).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StatePaused, StateParked, StateCompleted, StateFailed, StateCanceled:
		return true
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
// daemon job requires — a dataset, and no fixed read-ahead depth, because
// the governor sizes every job's depth and would ignore one. Replaying the
// journal decodes leniently instead (see replay).
func decodeSubmit(r io.Reader) (Spec, error) {
	sp, err := runspec.DecodeJSON(r)
	if err != nil {
		return sp, err
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	switch {
	case sp.Dataset == "":
		return sp, errors.New("spec: dataset is required")
	case sp.ReadAhead != 0:
		return sp, fmt.Errorf("spec: readahead %d: the daemon's governor sizes every job's read-ahead (-total-readahead split under -job-quota-readahead); omit it or send \"auto\"", sp.ReadAhead)
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
	reason string // "", "cancel", "pause", "park": why cancel() was called
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

// The job journal: every submission and state transition appended as a
// JSON payload inside a CRC-framed checkpoint.Log, so a daemon killed at
// any instant — mid-frame included — reopens the file, drops the torn
// tail, and reconstructs exactly the jobs it had accepted. Recovery then
// re-admits the in-flight ones: queued, running and parked jobs go back on
// the queue (running/parked ones resume from their per-job checkpoint when
// one exists), paused jobs stay paused because a client asked for that,
// and terminal jobs are kept for listing only.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"haralick4d/internal/checkpoint"
)

// journalHeader fingerprints the record schema; a daemon refuses a state
// dir written by an incompatible version (checkpoint.ErrMismatch).
const journalHeader = "haralick4d-job-journal-v1"

// record is one journal entry.
type record struct {
	// Type is "submit" (Spec set) or "state" (State set).
	Type  string `json:"type"`
	ID    int64  `json:"id"`
	Spec  *Spec  `json:"spec,omitempty"`
	State State  `json:"state,omitempty"`
	Err   string `json:"error,omitempty"`
	Kind  string `json:"error_kind,omitempty"`
	// Resume records, on pause/park/fail transitions, whether a later run
	// may reopen the job's checkpoint.
	Resume bool `json:"resume,omitempty"`
}

// openJournal creates or reopens the job journal at path and replays it.
// It returns the open log, the reconstructed jobs in submission order, and
// the next unused job id.
func openJournal(path string, syncInterval time.Duration) (*checkpoint.Log, []*Job, int64, error) {
	hdr := []byte(journalHeader)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		l, err := checkpoint.CreateLog(path, hdr, syncInterval)
		if err != nil {
			return nil, nil, 1, err
		}
		return l, nil, 1, nil
	}
	r := newReplay()
	l, _, err := checkpoint.OpenLog(path, hdr, syncInterval, r.apply)
	if err != nil {
		return nil, nil, 1, err
	}
	return l, r.jobs, r.nextID, nil
}

// replay folds journal records into per-job final states.
type replay struct {
	byID   map[int64]*Job
	jobs   []*Job // submission order
	nextID int64
	n      int // records folded so far
}

func newReplay() *replay { return &replay{byID: map[int64]*Job{}, nextID: 1} }

// apply folds one record. A state record must name a known job and a
// state the table can reach from the job's replayed one.
func (rp *replay) apply(p []byte) error {
	i := rp.n
	rp.n++
	var r record
	if err := json.Unmarshal(p, &r); err != nil {
		return fmt.Errorf("%w: job journal record %d: %v", checkpoint.ErrCorrupt, i, err)
	}
	switch r.Type {
	case "submit":
		if r.Spec == nil || r.ID <= 0 || rp.byID[r.ID] != nil {
			return fmt.Errorf("%w: job journal record %d: bad submit", checkpoint.ErrCorrupt, i)
		}
		j := &Job{ID: r.ID, Spec: *r.Spec, State: StateQueued}
		rp.byID[r.ID] = j
		rp.jobs = append(rp.jobs, j)
		rp.nextID = max(rp.nextID, r.ID+1)
	case "state":
		j := rp.byID[r.ID]
		if j == nil {
			return fmt.Errorf("%w: job journal record %d: state for unknown job %d", checkpoint.ErrCorrupt, i, r.ID)
		}
		if !reachable(j.State, r.State) {
			return fmt.Errorf("%w: job journal record %d: job %d cannot go from %s to %q", checkpoint.ErrCorrupt, i, r.ID, j.State, r.State)
		}
		j.State = r.State
		j.Err, j.ErrKind = r.Err, r.Kind
		j.Resume = r.Resume
	default:
		return fmt.Errorf("%w: job journal record %d: unknown type %q", checkpoint.ErrCorrupt, i, r.Type)
	}
	return nil
}

// appendSubmit journals a new job's spec.
func appendSubmit(l *checkpoint.Log, j *Job) error {
	return appendRecord(l, record{Type: "submit", ID: j.ID, Spec: &j.Spec})
}

// appendState journals a job's current state.
func appendState(l *checkpoint.Log, j *Job) error {
	return appendRecord(l, record{
		Type: "state", ID: j.ID, State: j.State,
		Err: j.Err, Kind: j.ErrKind, Resume: j.Resume,
	})
}

func appendRecord(l *checkpoint.Log, r record) error {
	p, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return l.Append(p)
}

package server

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/runspec"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jour, jobs, next, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || next != 1 {
		t.Fatalf("fresh journal: %d jobs, next %d", len(jobs), next)
	}
	j1 := &Job{ID: 1, Spec: Spec{Dataset: "mem://a"}, State: StateQueued}
	j2 := &Job{ID: 2, Spec: Spec{Dataset: "mem://b", Output: runspec.OutputJPEG}, State: StateQueued}
	for _, j := range []*Job{j1, j2} {
		if err := appendSubmit(jour, j); err != nil {
			t.Fatal(err)
		}
	}
	j1.State, j1.Err, j1.ErrKind = StateFailed, "boom", "stalled"
	j1.Resume = true
	if err := appendState(jour, j1); err != nil {
		t.Fatal(err)
	}
	j2.State = StateRunning
	if err := appendState(jour, j2); err != nil {
		t.Fatal(err)
	}
	if err := jour.Close(); err != nil {
		t.Fatal(err)
	}

	jour2, jobs, next, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jour2.Close()
	if next != 3 || len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, next %d", len(jobs), next)
	}
	if jobs[0].State != StateFailed || jobs[0].Err != "boom" || jobs[0].ErrKind != "stalled" || !jobs[0].Resume {
		t.Fatalf("job 1 replayed as %+v", jobs[0])
	}
	if jobs[1].State != StateRunning || jobs[1].Spec.Output != runspec.OutputJPEG {
		t.Fatalf("job 2 replayed as %+v", jobs[1])
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jour, _, _, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: 1, Spec: Spec{Dataset: "mem://a"}, State: StateQueued}
	if err := appendSubmit(jour, j); err != nil {
		t.Fatal(err)
	}
	if err := jour.Close(); err != nil {
		t.Fatal(err)
	}
	// A SIGKILL mid-append leaves a torn frame; recovery must drop it and
	// keep the journal appendable.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	jour2, jobs, next, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jour2.Close()
	if len(jobs) != 1 || next != 2 {
		t.Fatalf("after torn tail: %d jobs, next %d", len(jobs), next)
	}
	j.State = StateCompleted
	if err := appendState(jour2, j); err != nil {
		t.Fatal(err)
	}
}

func TestJournalReplayRejectsGarbage(t *testing.T) {
	// Semantically invalid records behind valid CRCs are corruption, not a
	// torn tail: state for an unknown job, duplicate submit, unknown type.
	cases := [][]record{
		{{Type: "state", ID: 7, State: StateRunning}},
		{{Type: "submit", ID: 1, Spec: &Spec{Dataset: "x"}}, {Type: "submit", ID: 1, Spec: &Spec{Dataset: "x"}}},
		{{Type: "frobnicate", ID: 1}},
		{{Type: "submit", ID: 1, Spec: &Spec{Dataset: "x"}}, {Type: "state", ID: 1, State: State("levitating")}},
	}
	for i, recs := range cases {
		var payloads [][]byte
		for _, r := range recs {
			p, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, p)
		}
		if _, _, err := replay(payloads); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"haralick4d/internal/runspec"
)

// post sends POST /jobs/{id}/{verb} and returns the status code.
func post(t *testing.T, base string, id int64, verb string) int {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%d/%s", base, id, verb), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getJob(t *testing.T, base string, id int64) view {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	return decodeView(t, resp)
}

// TestLifecycleTable drives every state × {cancel, pause, resume} through
// the HTTP API on a one-slot daemon and checks the status code and the
// state the job settles in against the lifecycle table. A running job
// answers 202 and reaches the table's state when its run ends; parked jobs
// exist only while the daemon drains, so their resume is refused with 503.
func TestLifecycleTable(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := hangingDataset(t, release)
	data := writeTestDataset(t)

	type outcome struct {
		code  int
		state State
	}
	events := []event{evCancel, evPause, evResume}
	want := map[State][3]outcome{
		StateQueued:    {{200, StateCanceled}, {200, StatePaused}, {409, StateQueued}},
		StateRunning:   {{202, StateCanceled}, {202, StatePaused}, {409, StateRunning}},
		StatePaused:    {{200, StateCanceled}, {409, StatePaused}, {202, StateQueued}},
		StateParked:    {{200, StateCanceled}, {409, StateParked}, {503, StateParked}},
		StateCompleted: {{409, StateCompleted}, {409, StateCompleted}, {409, StateCompleted}},
		StateFailed:    {{409, StateFailed}, {409, StateFailed}, {202, StateQueued}},
		StateCanceled:  {{409, StateCanceled}, {409, StateCanceled}, {409, StateCanceled}},
	}

	// into builds a job in state st on a fresh daemon; any job it leaves
	// running hangs, so a resumed or still-queued job stays queued.
	into := func(t *testing.T, s *Server, base string, st State) int64 {
		submit := func(sp Spec) int64 { return decodeView(t, postJSON(t, base+"/jobs", sp)).ID }
		hung := func() int64 { return submit(testSpec(hang, filepath.Join(t.TempDir(), "out"))) }
		settle := func(id int64, st State) int64 {
			pollTerminal(t, base, id, func(got State) bool { return got == st })
			return id
		}
		switch st {
		case StateRunning:
			return hung()
		case StateParked:
			id := hung()
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			return settle(id, StateParked)
		case StateCompleted:
			sp := testSpec(data, "")
			sp.Output = runspec.OutputNone
			return settle(submit(sp), StateCompleted)
		case StateFailed:
			id := settle(submit(testSpec(filepath.Join(t.TempDir(), "missing"), "")), StateFailed)
			hung()
			return id
		}
		hung()
		id := submit(testSpec(hang, filepath.Join(t.TempDir(), "out")))
		switch st {
		case StatePaused:
			post(t, base, id, "pause")
		case StateCanceled:
			post(t, base, id, "cancel")
		}
		return settle(id, st)
	}

	for _, st := range []State{StateQueued, StateRunning, StatePaused, StateParked, StateCompleted, StateFailed, StateCanceled} {
		for i, ev := range events {
			w := want[st][i]
			if to, ok := transitions[st][ev]; st != StateRunning && w.code != http.StatusServiceUnavailable {
				if !ok {
					to = st
				}
				if to != w.state {
					t.Fatalf("%s × %s: the table says %s, the test expects %s", st, ev, to, w.state)
				}
			}
			t.Run(fmt.Sprintf("%s/%s", st, ev), func(t *testing.T) {
				s, ts := newTestServer(t, Config{MaxJobs: 1})
				id := into(t, s, ts.URL, st)
				if code := post(t, ts.URL, id, string(ev)); code != w.code {
					t.Fatalf("status %d, want %d", code, w.code)
				}
				if st == StateRunning && w.code == http.StatusAccepted {
					pollTerminal(t, ts.URL, id, func(got State) bool { return got == w.state })
				} else if got := getJob(t, ts.URL, id).State; got != w.state {
					t.Fatalf("job is %s, want %s", got, w.state)
				}
			})
		}
	}
}

// TestCanceledJobIsNotResumable: a job paused while queued, resumed and
// then canceled ends canceled with nothing to resume — in the API and in
// the journal the next daemon replays.
func TestCanceledJobIsNotResumable(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := hangingDataset(t, release)
	stateDir := filepath.Join(t.TempDir(), "state")
	s, ts := newTestServer(t, Config{StateDir: stateDir, MaxJobs: 1})

	postJSON(t, ts.URL+"/jobs", testSpec(hang, filepath.Join(t.TempDir(), "a"))).Body.Close() // holds the slot
	id := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(hang, filepath.Join(t.TempDir(), "b")))).ID
	for _, verb := range []string{"pause", "resume"} {
		post(t, ts.URL, id, verb)
	}
	if v := getJob(t, ts.URL, id); v.State != StateQueued || !v.Resume {
		t.Fatalf("after pause and resume: %s resume=%v, want queued resume=true", v.State, v.Resume)
	}
	if code := post(t, ts.URL, id, "cancel"); code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	if v := getJob(t, ts.URL, id); v.State != StateCanceled || v.Resume {
		t.Fatalf("canceled job: %s resume=%v, want canceled resume=false", v.State, v.Resume)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jour, jobs, _, err := openJournal(filepath.Join(stateDir, "jobs.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jour.Close()
	if j := jobs[id-1]; j.State != StateCanceled || j.Resume {
		t.Fatalf("journal replays the job as %s resume=%v, want canceled resume=false", j.State, j.Resume)
	}
}

package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/runspec"
	"haralick4d/internal/volume"
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
		if _, _, err := replayAll(marshalRecords(t, recs)); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// replayAll folds payloads the way openJournal folds a reopened log.
func replayAll(payloads [][]byte) ([]*Job, int64, error) {
	r := newReplay()
	for _, p := range payloads {
		if err := r.apply(p); err != nil {
			return nil, 1, err
		}
	}
	return r.jobs, r.nextID, nil
}

func marshalRecords(t testing.TB, recs []record) [][]byte {
	t.Helper()
	var payloads [][]byte
	for _, r := range recs {
		p, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

// TestReplayReachability: a state record replays if the lifecycle table
// can reach its state from the job's replayed one, by any number of edges
// — records may be missing, since journal appends are not fatal — and is
// corruption otherwise.
func TestReplayReachability(t *testing.T) {
	submit := record{Type: "submit", ID: 1, Spec: &Spec{Dataset: "x"}}
	for _, c := range []struct {
		path []State
		ok   bool
	}{
		{[]State{StateCompleted}, true}, // running's record missing
		{[]State{StateRunning, StateQueued, StateRunning, StateParked}, true},
		{[]State{StatePaused, StateQueued, StateCanceled}, true},
		{[]State{StateFailed, StateRunning}, true}, // resume's queued record missing
		{[]State{StateQueued}, true},
		{[]State{StateCompleted, StateRunning}, false},
		{[]State{StateCanceled, StateQueued}, false},
		{[]State{StateCompleted, StateFailed}, false},
		{[]State{StateRunning, StateCanceled, StatePaused}, false},
	} {
		recs := []record{submit}
		for _, st := range c.path {
			recs = append(recs, record{Type: "state", ID: 1, State: st})
		}
		jobs, _, err := replayAll(marshalRecords(t, recs))
		switch {
		case c.ok && err != nil:
			t.Errorf("queued→%v: %v", c.path, err)
		case c.ok && jobs[0].State != c.path[len(c.path)-1]:
			t.Errorf("queued→%v replayed as %s", c.path, jobs[0].State)
		case !c.ok && !errors.Is(err, checkpoint.ErrCorrupt):
			t.Errorf("queued→%v: err = %v, want ErrCorrupt", c.path, err)
		}
	}
}

// frameEnds returns the offset just past each whole frame of a log.
func frameEnds(data []byte) []int {
	var ends []int
	for off := 0; off+8 <= len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// TestJournalCutAtEveryByte cuts the recorded job journal at every byte
// offset: each reopen replays exactly the jobs of the whole frames before
// the cut and truncates the rest; a cut inside the header frame leaves no
// journal.
func TestJournalCutAtEveryByte(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "head.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(raw)
	var payloads [][]byte
	for i := 1; i < len(ends); i++ {
		payloads = append(payloads, raw[ends[i-1]+8:ends[i]])
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := newReplay()
		l, trunc, err := checkpoint.OpenLog(path, []byte(journalHeader), 0, r.apply)
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if whole == 0 {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("cut %d inside the header: err = %v, want ErrCorrupt", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		jobs, next, err := replayAll(payloads[:whole-1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.jobs, jobs) || r.nextID != next || trunc != int64(cut-ends[whole-1]) {
			t.Fatalf("cut %d: %d jobs, next %d, %d torn bytes; want %d, %d, %d",
				cut, len(r.jobs), r.nextID, trunc, len(jobs), next, cut-ends[whole-1])
		}
		// A submit after the cut lands on the frame boundary.
		if err := appendSubmit(l, &Job{ID: next, Spec: Spec{Dataset: "x"}}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, jobs2, _, err := openJournal(path, 0)
		if err != nil {
			t.Fatalf("cut %d, reopened after a submit: %v", cut, err)
		}
		l.Close()
		if len(jobs2) != len(jobs)+1 || jobs2[len(jobs)].ID != next {
			t.Fatalf("cut %d, reopened after a submit: %d jobs, want %d", cut, len(jobs2), len(jobs)+1)
		}
	}
}

// splitFuzzInput reads in as u16le-length-prefixed payloads; the bytes
// after the last whole payload are a raw tail, written unframed as a torn
// append would leave them.
func splitFuzzInput(in []byte) (payloads [][]byte, tail []byte) {
	for len(in) >= 2 {
		n := int(binary.LittleEndian.Uint16(in))
		if 2+n > len(in) {
			break
		}
		payloads, in = append(payloads, in[2:2+n]), in[2+n:]
	}
	return payloads, in
}

// joinFuzzInput is splitFuzzInput's inverse, for seeds.
func joinFuzzInput(payloads [][]byte) []byte {
	var in []byte
	for _, p := range payloads {
		in = binary.LittleEndian.AppendUint16(in, uint16(len(p)))
		in = append(in, p...)
	}
	return in
}

// writeFuzzLog writes a log of header, the non-empty payloads and tail.
func writeFuzzLog(t *testing.T, path string, header []byte, payloads [][]byte, tail []byte) {
	l, err := checkpoint.CreateLog(path, header, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if len(p) > 0 {
			if err := l.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
}

// FuzzJournals writes the input's payloads (see splitFuzzInput) as a
// checkpoint journal after a fixed run header and as a job journal, then
// reopens both. Each reopen returns a typed error or a valid state, never
// panics, and allocates within 64 bytes per input byte plus 1 MiB (the
// count is process-wide, hence the fixed slack).
func FuzzJournals(f *testing.F) {
	hdr := checkpoint.Header{
		Dims: [4]int{24, 24, 6, 8}, ROI: [4]int{5, 5, 2, 2}, ChunkShape: [4]int{16, 16, 4, 4}, OutDims: [4]int{20, 20, 5, 7},
		GrayLevels: 16, NDim: 4, Distance: 1, Features: []int{0, 1, 2, 3},
	}
	ck, err := volume.NewChunker(hdr.Dims, hdr.ChunkShape, hdr.ROI)
	if err != nil {
		f.Fatal(err)
	}
	// The header frame's payload, as the journal itself writes it.
	path := filepath.Join(f.TempDir(), "header.journal")
	j, err := checkpoint.Create(path, hdr, 0)
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	ckHeader := raw[8:]

	for _, seed := range []string{filepath.Join("testdata", "head.journal"), filepath.Join("..", "checkpoint", "testdata", "run.journal")} {
		raw, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		ends := frameEnds(raw)
		var payloads [][]byte
		for i := 1; i < len(ends); i++ {
			payloads = append(payloads, raw[ends[i-1]+8:ends[i]])
		}
		f.Add(joinFuzzInput(payloads))
		f.Add(append(joinFuzzInput(payloads[:len(payloads)/2]), 0x20, 0, 0, 0, 0xde))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		payloads, tail := splitFuzzInput(in)
		dir := t.TempDir()
		ckPath, jobPath := filepath.Join(dir, "run.journal"), filepath.Join(dir, "jobs.journal")
		writeFuzzLog(t, ckPath, ckHeader, payloads, tail)
		writeFuzzLog(t, jobPath, []byte(journalHeader), payloads, tail)
		typed := func(err error) bool {
			return errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrMismatch)
		}
		bound := 64*uint64(len(in)) + 1<<20

		var cj *checkpoint.Journal
		var st *checkpoint.State
		if n := allocated(func() { cj, st, err = checkpoint.Resume(ckPath, hdr, 0) }); n > bound {
			t.Fatalf("resuming a %d-byte input allocated %d bytes", len(in), n)
		}
		switch {
		case err != nil && !typed(err):
			t.Fatalf("checkpoint journal: untyped error %v", err)
		case err == nil:
			cj.Close()
			out := volume.Box{Hi: hdr.OutDims}
			for _, p := range st.Portions {
				if !slices.Contains(hdr.Features, p.Feature) || p.Box.Empty() || !out.ContainsBox(p.Box) || len(p.Values) != p.Box.NumVoxels() {
					t.Fatalf("invalid portion recovered: feature %d box %v, %d values", p.Feature, p.Box, len(p.Values))
				}
			}
			for _, d := range st.Degraded {
				if d.Origins.Empty() || !out.ContainsBox(d.Origins) {
					t.Fatalf("invalid degraded notice recovered: %+v", d)
				}
			}
			if _, err := checkpoint.CompleteChunks(st, ck, hdr.Features); err != nil && !typed(err) {
				t.Fatalf("CompleteChunks: untyped error %v", err)
			}
		}

		var l *checkpoint.Log
		var jobs []*Job
		var next int64
		if n := allocated(func() { l, jobs, next, err = openJournal(jobPath, 0) }); n > bound {
			t.Fatalf("replaying a %d-byte input allocated %d bytes", len(in), n)
		}
		switch {
		case err != nil && !typed(err):
			t.Fatalf("job journal: untyped error %v", err)
		case err == nil:
			l.Close()
			seen := map[int64]bool{}
			for _, j := range jobs {
				if j.ID <= 0 || j.ID >= next || seen[j.ID] || !reachable(StateQueued, j.State) {
					t.Fatalf("invalid job replayed: id %d (next %d) state %q", j.ID, next, j.State)
				}
				seen[j.ID] = true
			}
		}
	})
}

func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

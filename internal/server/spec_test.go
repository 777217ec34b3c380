package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/readahead"
	"haralick4d/internal/runspec"
)

// submitRaw posts a literal body and returns the status and error text.
func submitRaw(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(raw, &e)
	return resp.StatusCode, e.Error
}

// TestSubmitRejectsUnknownKey: a misspelt key is a 400 naming it, not a
// job silently run at the default (here, the kernel worker count), and so
// is a key the spec no longer has (the block cache's budget).
func TestSubmitRejectsUnknownKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ key, body string }{
		{"kernel_worker", `{"dataset": "/data/study", "kernel_worker": 2}`},
		{"cache_blocks", `{"dataset": "/data/study", "cache_blocks": 64}`},
	} {
		code, msg := submitRaw(t, ts.URL, c.body)
		if code != http.StatusBadRequest || !strings.Contains(msg, `"`+c.key+`"`) {
			t.Errorf("status %d, error %q; want 400 naming %s", code, msg, c.key)
		}
	}
}

// TestSubmitReadAhead: a daemon job runs the spec's read-ahead exactly as the
// CLI runs it. A fixed depth is accepted and every reader copy holds it;
// auto, 0 and an absent key size each copy under its share of the run's
// budget, the limit the CLI's run of the same spec reports.
func TestSubmitReadAhead(t *testing.T) {
	url := writeTestDataset(t)
	_, ts := newTestServer(t, Config{MaxJobs: 1})
	base := `{"dataset": "` + url + `", "roi": [5,5,2,2], "gray": 16, "output": "none"`
	auto := int64(readahead.AutoCap(3, 2*testDims[0]*testDims[1]))
	if cli := cliReadAheadLimit(t, base+`}`); cli != auto {
		t.Fatalf("CLI run: RFR limit %d, want AutoCap %d", cli, auto)
	}
	// A depth past what the backend keeps alive is refused before it is
	// journalled: each reader allocates its slot queue at its depth.
	tooDeep := fmt.Sprintf(`, "readahead": %d}`, readahead.MaxRequests+1)
	if code, msg := submitRaw(t, ts.URL, base+tooDeep); code != http.StatusBadRequest || !strings.Contains(msg, "readahead") {
		t.Fatalf("%q: status %d, error %q; want 400 naming readahead", tooDeep, code, msg)
	}
	for _, c := range []struct {
		extra            string
		loDepth, hiDepth int64
		limit            int64
	}{
		{`, "readahead": 3`, 3, 3, 3},
		{`, "readahead": "auto"`, readahead.Floor, auto, auto},
		{`, "readahead": 0`, readahead.Floor, auto, auto},
		{``, readahead.Floor, auto, auto},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(base+c.extra+`}`))
		if err != nil {
			t.Fatal(err)
		}
		code, v := resp.StatusCode, decodeView(t, resp)
		if code != http.StatusAccepted {
			t.Fatalf("%q: status %d (%s), want 202", c.extra, code, v.Error)
		}
		v = pollTerminal(t, ts.URL, v.ID, State.Terminal)
		if v.State != StateCompleted || v.Report == nil {
			t.Fatalf("%q: job %s (%s)", c.extra, v.State, v.Error)
		}
		for _, row := range v.Report.Filter("RFR").Copies {
			if row.ReadAheadDepth < c.loDepth || row.ReadAheadDepth > c.hiDepth || row.ReadAheadLimit != c.limit {
				t.Errorf("%q: RFR[%d] depth %d limit %d, want depth in [%d, %d], limit %d",
					c.extra, row.Copy, row.ReadAheadDepth, row.ReadAheadLimit, c.loDepth, c.hiDepth, c.limit)
			}
		}
	}
}

// cliReadAheadLimit runs body's spec the way the CLI does — open, Prepare
// with no placement, the local engine — and returns the largest RFR
// read-ahead limit its report carries.
func cliReadAheadLimit(t *testing.T, body string) int64 {
	t.Helper()
	sp, err := runspec.DecodeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	st, err := pipeline.OpenDataset(context.Background(), &sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := pipeline.Prepare(st, &sp, pipeline.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := p.Run(context.Background(), pipeline.EngineLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	var limit int64
	for _, row := range rep.Filter("RFR").Copies {
		limit = max(limit, row.ReadAheadLimit)
	}
	return limit
}

// TestJournalReplayLenient: records already accepted replay even with keys
// this version does not know, and keep their read-ahead depth.
func TestJournalReplayLenient(t *testing.T) {
	jobs, next, err := replayAll([][]byte{
		[]byte(`{"type":"submit","id":1,"spec":{"dataset":"/d","kernel_worker":2,"readahead":8}}`),
	})
	if err != nil || len(jobs) != 1 || next != 2 {
		t.Fatalf("replay: %d jobs, next %d, %v", len(jobs), next, err)
	}
	if sp := jobs[0].Spec; sp.Dataset != "/d" || sp.ReadAhead != 8 {
		t.Fatalf("replayed spec %+v", sp)
	}
}

// TestReplayRecordedJournal replays a job journal written by the daemon
// before job specs became run specs (testdata/head.journal): every job,
// state and spec field must come back, in the old string and array forms.
// Job 3 also carries the block cache's two keys, which the spec has since
// lost: replay drops them and keeps the rest of its spec.
func TestReplayRecordedJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "head.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	jour, jobs, next, err := openJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jour.Close()
	if len(jobs) != 6 || next != 7 {
		t.Fatalf("replayed %d jobs, next %d; want 6, 7", len(jobs), next)
	}
	want := []struct {
		st     State
		resume bool
		spec   Spec
	}{
		{StateRunning, false, Spec{Dataset: "/data/serve-study", OutDir: "/out/uso-served",
			ROI: runspec.Shape{5, 5, 2, 2}, ChunkShape: runspec.Shape{12, 12, 3, 4}, GrayLevels: 16, Texture: 2}},
		{StateCompleted, false, Spec{Dataset: "/data/bench", Texture: 2, KernelWorkers: 2}},
		{StateParked, true, Spec{Dataset: "http://localhost:8171/study", Output: runspec.OutputJPEG, OutDir: "/out/maps",
			ROI: runspec.Shape{8, 8, 3, 3}, ChunkShape: runspec.Shape{16, 16, 5, 5}, GrayLevels: 32, NDim: 3, Distance: 2,
			Features:       runspec.Features{features.ASM, features.Contrast, features.MaxCorrelationCoeff},
			Representation: core.SparseMatrix, Impl: runspec.Split, Policy: runspec.RoundRobin, Texture: 3,
			KernelWorkers: 1, ReadAhead: 8, FaultPolicy: fault.SkipDegraded,
			StallTimeout: runspec.Duration(2 * time.Minute), Deadline: runspec.Millis(time.Minute), ServeStale: true}},
		{StatePaused, true, Spec{Dataset: "http://localhost:8171", GrayLevels: 32, StallTimeout: runspec.Duration(2 * time.Minute)}},
		{StateFailed, false, Spec{Dataset: "mem://study", Output: runspec.OutputNone, Policy: runspec.RoundRobin,
			FaultPolicy: fault.SkipDegraded, Representation: core.FullMatrixNoSkip}},
		{StateQueued, false, Spec{Dataset: "/data/queued"}},
	}
	for i, w := range want {
		j := jobs[i]
		if j.ID != int64(i+1) || j.State != w.st || j.Resume != w.resume || !reflect.DeepEqual(j.Spec, w.spec) {
			t.Errorf("job %d replayed as %d %s resume=%v %+v\nwant %s resume=%v %+v", i+1, j.ID, j.State, j.Resume, j.Spec, w.st, w.resume, w.spec)
		}
	}
	if jobs[4].ErrKind != "backend_unavailable" {
		t.Errorf("failed job kind %q", jobs[4].ErrKind)
	}
}

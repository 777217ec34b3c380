package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/runspec"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// testDims and testSpec pin the small-but-parallel configuration every
// daemon test runs: multiple storage nodes, multiple texture copies, a
// few dozen chunks.
var testDims = [4]int{24, 20, 4, 6}

func testVolume() *volume.Volume {
	return synthetic.Generate(synthetic.Config{Dims: testDims, Seed: 17, NumTumors: 2, NumVessels: 1, NoiseSigma: 0.01})
}

// writeTestDataset writes the fixture study to disk and returns its URL.
func writeTestDataset(t *testing.T) string {
	return writeEncodedDataset(t, dataset.EncodingRaw)
}

// writeEncodedDataset is writeTestDataset in the given slice encoding.
func writeEncodedDataset(t *testing.T, enc dataset.Encoding) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if _, err := dataset.WriteDistributed(dir, testVolume(), 3, dataset.RoundRobinDist, enc); err != nil {
		t.Fatal(err)
	}
	return dir
}

func testSpec(url, outDir string) Spec {
	return Spec{
		Dataset:    url,
		Output:     runspec.OutputUSO,
		OutDir:     outDir,
		ROI:        runspec.Shape{5, 5, 2, 2},
		ChunkShape: runspec.Shape{12, 12, 3, 4},
		GrayLevels: 16,
		Texture:    2,
	}
}

// oracleGrids runs the same analysis in-process (collect output) — the
// reference the daemon's USO files must match bit-for-bit.
func oracleGrids(t *testing.T, url string) (map[features.Feature]*volume.FloatGrid, [4]int) {
	t.Helper()
	st, err := dataset.OpenURL(context.Background(), url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sp := testSpec(url, "")
	cfg, layout, err := pipeline.ConfigFor(&sp, st.Meta.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Output = pipeline.OutputCollect
	cfg.OutDir = ""
	g, sink, outDims, err := pipeline.Build(st, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(g, pipeline.EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
	if err := sink.Complete(cfg.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	grids := map[features.Feature]*volume.FloatGrid{}
	for _, f := range cfg.Analysis.Features {
		grids[f] = sink.Grid(f)
	}
	return grids, outDims
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = filepath.Join(t.TempDir(), "state")
	}
	if cfg.ProgressInterval == 0 {
		cfg.ProgressInterval = 20 * time.Millisecond
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) view {
	t.Helper()
	defer resp.Body.Close()
	var v view
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollTerminal polls GET /jobs/{id} until the job reaches a terminal or
// otherwise-settled state.
func pollTerminal(t *testing.T, base string, id int64, settled func(State) bool) view {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
		if err != nil {
			t.Fatal(err)
		}
		v := decodeView(t, resp)
		if settled(v.State) {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %d did not settle in time", id)
	return view{}
}

// TestSubmitRunsToCompletion: a job runs to completion and its USO output
// is bit-identical to the in-process run over the raw study, whatever the
// study's slice encoding.
func TestSubmitRunsToCompletion(t *testing.T) {
	want, outDims := oracleGrids(t, writeTestDataset(t))
	for _, enc := range []dataset.Encoding{dataset.EncodingRaw, dataset.EncodingDICOM} {
		t.Run(enc.String(), func(t *testing.T) {
			url := writeEncodedDataset(t, enc)
			outDir := filepath.Join(t.TempDir(), "out")
			_, ts := newTestServer(t, Config{MaxJobs: 2})

			v := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(url, outDir)))
			if v.ID != 1 || v.State == "" {
				t.Fatalf("submit returned %+v", v)
			}
			final := pollTerminal(t, ts.URL, v.ID, State.Terminal)
			if final.State != StateCompleted {
				t.Fatalf("job finished %s (%s: %s)", final.State, final.ErrKind, final.Error)
			}
			if final.Report == nil {
				t.Fatal("completed job carries no run report")
			}

			got, err := filters.ReadUSODir(outDir, outDims)
			if err != nil {
				t.Fatal(err)
			}
			for f, wg := range want {
				gg := got[f]
				if gg == nil {
					t.Fatalf("feature %v missing from USO output", f)
				}
				if len(gg.Data) != len(wg.Data) {
					t.Fatalf("feature %v: %d values, want %d", f, len(gg.Data), len(wg.Data))
				}
				for i := range wg.Data {
					if gg.Data[i] != wg.Data[i] {
						t.Fatalf("feature %v voxel %d: %v != %v (daemon output not bit-identical)", f, i, gg.Data[i], wg.Data[i])
					}
				}
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/jobs", Spec{}) // no dataset
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs", map[string]any{"dataset": "x", "output": "tiff"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad output: status %d, want 400", resp.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/jobs/99")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", r2.StatusCode)
	}
}

// hangingDataset serves a dataset over HTTP but blocks every request until
// release is closed — a deterministic way to keep a job in-flight.
func hangingDataset(t *testing.T, release <-chan struct{}) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	if _, err := dataset.Write(dir, testVolume(), 3); err != nil {
		t.Fatal(err)
	}
	fs := http.FileServer(http.Dir(dir))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
			fs.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestSaturationSheds429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	url := hangingDataset(t, release)
	_, ts := newTestServer(t, Config{MaxJobs: 1, MaxQueue: 1})

	spec := testSpec(url, filepath.Join(t.TempDir(), "out"))
	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", spec)) // running (hung)
	v2 := decodeView(t, postJSON(t, ts.URL+"/jobs", spec)) // queued
	resp := postJSON(t, ts.URL+"/jobs", spec)              // shed
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Shedding must not disturb the admitted jobs.
	for _, id := range []int64{v1.ID, v2.ID} {
		r, err := http.Post(fmt.Sprintf("%s/jobs/%d/cancel", ts.URL, id), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	for _, id := range []int64{v1.ID, v2.ID} {
		final := pollTerminal(t, ts.URL, id, State.Terminal)
		if final.State != StateCanceled {
			t.Fatalf("job %d finished %s, want canceled", id, final.State)
		}
	}
}

func TestDrainParksRunningJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	url := hangingDataset(t, release)
	s, ts := newTestServer(t, Config{MaxJobs: 1, DrainTimeout: 30 * time.Second})

	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(url, filepath.Join(t.TempDir(), "out"))))
	// Wait until it is actually running before draining.
	pollTerminal(t, ts.URL, v1.ID, func(st State) bool { return st == StateRunning })
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	final := pollTerminal(t, ts.URL, v1.ID, func(st State) bool { return st == StateParked })
	if !final.Resume {
		t.Fatal("parked job not marked resumable")
	}
	// Drained daemon: liveness reports draining, admissions are refused.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzBody bytes.Buffer
	hzBody.ReadFrom(hz.Body)
	hz.Body.Close()
	if !strings.Contains(hzBody.String(), "draining") {
		t.Fatalf("healthz says %q, want draining", hzBody.String())
	}
	resp := postJSON(t, ts.URL+"/jobs", testSpec(url, ""))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestPauseResumeRoundTrip(t *testing.T) {
	release := make(chan struct{})
	url := hangingDataset(t, release)
	_, ts := newTestServer(t, Config{MaxJobs: 1})

	outDir := filepath.Join(t.TempDir(), "out")
	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(url, outDir)))
	pollTerminal(t, ts.URL, v1.ID, func(st State) bool { return st == StateRunning })
	r, err := http.Post(fmt.Sprintf("%s/jobs/%d/pause", ts.URL, v1.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	paused := pollTerminal(t, ts.URL, v1.ID, func(st State) bool { return st == StatePaused })
	if !paused.Resume {
		t.Fatal("paused job not marked resumable")
	}

	close(release) // let the dataset answer this time
	r, err = http.Post(fmt.Sprintf("%s/jobs/%d/resume", ts.URL, v1.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	final := pollTerminal(t, ts.URL, v1.ID, State.Terminal)
	if final.State != StateCompleted {
		t.Fatalf("resumed job finished %s (%s)", final.State, final.Error)
	}
}

func TestRecoveryRequeuesInFlightJobs(t *testing.T) {
	url := writeTestDataset(t)
	stateDir := filepath.Join(t.TempDir(), "state")
	outDir := filepath.Join(t.TempDir(), "out")

	// Forge the journal a SIGKILLed daemon would leave behind: one job
	// submitted and last seen running, one parked by an earlier drain, one
	// paused by a client, one already completed.
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	jour, jobs, next, err := openJournal(filepath.Join(stateDir, "jobs.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 || next != 1 {
		t.Fatalf("fresh journal replayed %d jobs, next %d", len(jobs), next)
	}
	mk := func(id int64, st State) {
		j := &Job{ID: id, Spec: testSpec(url, filepath.Join(outDir, fmt.Sprint(id))), State: st}
		if err := appendSubmit(jour, j); err != nil {
			t.Fatal(err)
		}
		if st != StateQueued {
			if err := appendState(jour, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk(1, StateRunning)
	mk(2, StateParked)
	mk(3, StatePaused)
	mk(4, StateCompleted)
	if err := jour.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{StateDir: stateDir, MaxJobs: 2})
	// 1 and 2 were in flight: re-admitted and run to completion.
	for _, id := range []int64{1, 2} {
		final := pollTerminal(t, ts.URL, id, State.Terminal)
		if final.State != StateCompleted {
			t.Fatalf("recovered job %d finished %s (%s)", id, final.State, final.Error)
		}
	}
	// 3 asked to be paused; 4 is history. Neither runs again.
	for id, want := range map[int64]State{3: StatePaused, 4: StateCompleted} {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		if v := decodeView(t, resp); v.State != want {
			t.Fatalf("recovered job %d is %s, want %s", id, v.State, want)
		}
	}
	// The recovered-and-rerun output still matches the oracle.
	want, outDims := oracleGrids(t, url)
	got, err := filters.ReadUSODir(filepath.Join(outDir, "1"), outDims)
	if err != nil {
		t.Fatal(err)
	}
	for f, wg := range want {
		gg := got[f]
		if gg == nil {
			t.Fatalf("feature %v missing after recovery", f)
		}
		for i := range wg.Data {
			if gg.Data[i] != wg.Data[i] {
				t.Fatalf("feature %v voxel %d differs after recovery", f, i)
			}
		}
	}
}

func TestEventsStream(t *testing.T) {
	url := writeTestDataset(t)
	_, ts := newTestServer(t, Config{MaxJobs: 1})

	v1 := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(url, filepath.Join(t.TempDir(), "out"))))
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/events", ts.URL, v1.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var events []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateCompleted {
		t.Fatalf("stream ended with %+v, want completed state", last)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 3, MaxQueue: 7})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		MaxJobs  int  `json:"max_jobs"`
		MaxQueue int  `json:"max_queue"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MaxJobs != 3 || st.MaxQueue != 7 || st.Draining {
		t.Fatalf("stats %+v", st)
	}
}

// TestSpecDefaults pins the spec→pipeline translation against the
// documented defaults: the fast kernel and self-sized read-ahead, as on
// every other surface.
func TestSpecDefaults(t *testing.T) {
	sp := Spec{Dataset: "x"}
	cfg, layout, err := pipeline.ConfigFor(&sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Analysis.ROI != ([4]int{16, 16, 3, 3}) || cfg.Analysis.GrayLevels != 32 {
		t.Fatalf("defaults: ROI %v G %d", cfg.Analysis.ROI, cfg.Analysis.GrayLevels)
	}
	if cfg.Output != pipeline.OutputUSO {
		t.Fatalf("default output %v, want USO", cfg.Output)
	}
	if cfg.Policy != filter.DemandDriven || cfg.Impl != pipeline.HMPImpl {
		t.Fatalf("defaults: policy %v impl %v", cfg.Policy, cfg.Impl)
	}
	if cfg.Analysis.Workers != 0 || cfg.ReadAhead != pipeline.ReadAheadAuto {
		t.Fatalf("defaults: kernel workers %d read-ahead %d, want auto (0) and auto", cfg.Analysis.Workers, cfg.ReadAhead)
	}
	if len(layout.HMPNodes) != 4 {
		t.Fatalf("default texture copies %d, want 4", len(layout.HMPNodes))
	}
	if _, _, err := pipeline.ConfigFor(&Spec{Dataset: "x", Representation: core.SparseMatrix}, 1); err != nil {
		t.Fatal(err)
	}
	if !checkpointable(&Spec{Dataset: "x"}) {
		t.Fatal("uso default must be checkpointable")
	}
	if checkpointable(&Spec{Dataset: "x", Output: runspec.OutputJPEG}) {
		t.Fatal("jpeg must not be checkpointable")
	}
	var rep core.Representation
	if rep != core.FullMatrix {
		t.Fatal("zero representation is not full matrix")
	}
}

package pipeline

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// serveTestDataset writes the standard phantom study to disk, serves it
// over HTTP with Range support, and returns the server plus the local dir.
func serveTestDataset(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{24, 20, 4, 6}, Seed: 17})
	if _, err := dataset.Write(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	t.Cleanup(srv.Close)
	return srv, dir
}

func runPipeline(t *testing.T, st *dataset.Store, engine Engine) (map[features.Feature]*volume.FloatGrid, *metrics.RunReport) {
	t.Helper()
	cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
	layout := &Layout{
		SourceNodes: []int{0, 1, 2},
		IICNodes:    []int{3},
		HMPNodes:    []int{4, 5, 4},
		HCCNodes:    []int{4, 5},
		HPCNodes:    []int{5},
		OutputNodes: []int{0},
	}
	g, res, _, err := Build(st, cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(g, engine, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	rep := rs
	if rep == nil {
		t.Fatal("run produced no report")
	}
	attachBackendStats(rep, st)
	grids := map[features.Feature]*volume.FloatGrid{}
	for _, f := range cfg.Analysis.Features {
		grids[f] = res.Grid(f)
	}
	return grids, rep
}

// TestHTTPPipelineMatchesLocal runs the full texture pipeline against an
// httptest-served dataset on both the in-process and TCP engines, and
// demands bit-identical feature maps against the local-FS oracle.
func TestHTTPPipelineMatchesLocal(t *testing.T) {
	srv, dir := serveTestDataset(t)

	local, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runPipeline(t, local, EngineLocal)

	for _, engine := range []Engine{EngineLocal, EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{
				CacheBlocks: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			got, rep := runPipeline(t, st, engine)
			for f, w := range want {
				gridsEqual(t, f.String(), w, got[f])
			}
			if len(rep.Backends) != 1 {
				t.Fatalf("report has %d backend entries, want 1", len(rep.Backends))
			}
			be := rep.Backends[0]
			if be.Scheme != "http" {
				t.Errorf("backend scheme = %q, want http", be.Scheme)
			}
			if be.Reads == 0 || be.ReadBytes == 0 {
				t.Errorf("backend counters empty: %+v", be)
			}
			if be.CacheHits+be.CacheMisses == 0 {
				t.Errorf("block cache saw no traffic: %+v", be)
			}
		})
	}
}

// TestHTTPPipelineChaos injects a transport fault on every 12th HTTP request;
// the backend's retry budget must absorb every failure and the run must
// still be bit-identical to the local oracle. The period follows from the
// request count: a clean run of this study makes 28 requests — the header, 3
// node indexes and one GET per slice (24), no HEADs — so requests 12 and 24
// die, their retries make it 30, and a third multiple (36) is never reached.
// With only two failures in the whole run no read can lose all three of its
// attempts, however the concurrent readers interleave; a shorter period
// (the former 5) lets one read's retries land on consecutive multiples.
func TestHTTPPipelineChaos(t *testing.T) {
	srv, dir := serveTestDataset(t)

	local, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runPipeline(t, local, EngineLocal)

	flaky := &fault.FlakyTransport{FailEvery: 12}
	st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{
		HTTPClient: &http.Client{Transport: flaky},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	got, _ := runPipeline(t, st, EngineTCP)
	for f, w := range want {
		gridsEqual(t, f.String(), w, got[f])
	}
	if flaky.Calls() != 30 || flaky.Failures() != 2 {
		t.Errorf("injector saw %d requests and killed %d, want 30 and 2 (28 clean + 2 retries)",
			flaky.Calls(), flaky.Failures())
	}
}

// TestMemBackendPipeline runs the pipeline against a registered mem://
// dataset — the whole-study-in-RAM path — and checks it against the
// local-FS oracle.
func TestMemBackendPipeline(t *testing.T) {
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{24, 20, 4, 6}, Seed: 17})
	dir := t.TempDir()
	if _, err := dataset.Write(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	local, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runPipeline(t, local, EngineLocal)

	mb, _, err := dataset.WriteMemDataset(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	dataset.RegisterMem("pipeline-backend-test", mb)
	defer dataset.UnregisterMem("pipeline-backend-test")
	st, err := dataset.OpenURL(context.Background(), "mem://pipeline-backend-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	got, rep := runPipeline(t, st, EngineLocal)
	for f, w := range want {
		gridsEqual(t, f.String(), w, got[f])
	}
	if len(rep.Backends) != 1 || rep.Backends[0].Scheme != "mem" {
		t.Fatalf("backends = %+v, want one mem entry", rep.Backends)
	}
}

package haralick4d

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/runspec"
	"haralick4d/internal/server"
)

// TestRunSpecSurfaces feeds each run through the three front ends that
// describe one — a flag line through runspec.Bind, a JSON body through the
// daemon's POST /jobs, a Go literal through Options — and requires one
// verdict: the same error text for a bad run, a byte-equal pipeline
// configuration and layout for a good one. An empty flag line, a body with
// only a dataset and Options{} all resolve to Defaults(), which pins the
// self-sized kernel workers and read-ahead on every surface. A row that
// runs goes to completion on a written study through AnalyzeDataset, a
// daemon job and the run body as the CLI calls it, with bit-identical
// features.
func TestRunSpecSurfaces(t *testing.T) {
	state := t.TempDir()
	srv, err := server.New(server.Config{StateDir: state, MaxJobs: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	// Jobs the daemon accepts fail fast on this missing dataset.
	dataset := filepath.Join(t.TempDir(), "no-such-study")
	study := filepath.Join(t.TempDir(), "study")
	if err := WriteDataset(study, phantom(t), 2); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name  string
		flags []string
		json  string
		opts  Options
		err   string // "" for a good run
		run   bool   // run it on study through every front end
	}{
		{name: "defaults", opts: Options{}},
		{name: "explicit defaults",
			flags: []string{"-roi", "16x16x3x3", "-gray", "32", "-texture", "4", "-kernel-workers", "0", "-readahead", "auto", "-policy", "dd"},
			json:  `"roi": [16,16,3,3], "gray": 32, "texture": 4, "kernel_workers": 0, "readahead": "auto", "policy": "demand-driven"`,
			opts:  Options{}},
		{name: "oracle",
			flags: []string{"-roi", "5x5x2x2", "-chunk", "12x12x3x4", "-gray", "16", "-texture", "2", "-kernel-workers", "1"},
			json:  `"roi": [5,5,2,2], "chunk": [12,12,3,4], "gray": 16, "texture": 2, "kernel_workers": 1`,
			opts:  Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, ChunkShape: [4]int{12, 12, 3, 4}, GrayLevels: 16, Texture: 2, KernelWorkers: 1}}},
		{name: "every field",
			flags: []string{"-ndim", "3", "-distance", "2", "-features", "asm,contrast", "-rep", "sparse", "-impl", "split",
				"-policy", "round-robin", "-fault-policy", "skip-degraded",
				"-stall-timeout", "2m", "-deadline", "1m", "-serve-stale"},
			json: `"ndim": 3, "distance": 2, "features": ["asm","contrast"], "rep": "sparse", "impl": "split",
				"policy": "round-robin", "fault_policy": "skip-degraded",
				"stall_timeout": "2m", "deadline_ms": 60000, "serve_stale": true`,
			opts: Options{Spec: Spec{NDim: 3, Distance: 2, Features: []Feature{ASM, Contrast}, Representation: SparseMatrix,
				Impl: runspec.Split, Policy: runspec.RoundRobin, FaultPolicy: SkipDegraded,
				StallTimeout: Duration(2 * time.Minute), Deadline: Millis(time.Minute), ServeStale: true}}},
		{name: "runs", run: true,
			flags: []string{"-roi", "5x5x2x2", "-chunk", "12x12x3x4", "-gray", "16", "-texture", "2", "-kernel-workers", "2",
				"-features", "asm,contrast,correlation,entropy", "-impl", "split", "-rep", "sparse"},
			json: `"roi": [5,5,2,2], "chunk": [12,12,3,4], "gray": 16, "texture": 2, "kernel_workers": 2,
				"features": ["asm","contrast","correlation","entropy"], "impl": "split", "rep": "sparse"`,
			opts: Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, ChunkShape: [4]int{12, 12, 3, 4}, GrayLevels: 16, Texture: 2, KernelWorkers: 2,
				Features: []Feature{ASM, Contrast, Correlation, Entropy}, Impl: runspec.Split, Representation: SparseMatrix}}},

		{name: "negative texture", flags: []string{"-texture", "-1"}, json: `"texture": -1`,
			opts: Options{Spec: Spec{Texture: -1}}, err: "spec: texture (-texture) must not be negative, got -1"},
		{name: "too many copies", flags: []string{"-texture", "5000"}, json: `"texture": 5000`,
			opts: Options{Spec: Spec{Texture: 5000}}, err: "spec: texture (-texture) 5000 is more than 1024 copies"},
		{name: "negative kernel workers", flags: []string{"-kernel-workers", "-1"}, json: `"kernel_workers": -1`,
			opts: Options{Spec: Spec{KernelWorkers: -1}}, err: "spec: kernel_workers (-kernel-workers) must not be negative, got -1"},
		{name: "negative readahead", flags: []string{"-readahead", "-1"}, json: `"readahead": -1`,
			opts: Options{Spec: Spec{ReadAhead: -1}}, err: "spec: readahead (-readahead) must not be negative, got -1"},
		{name: "negative stall timeout", flags: []string{"-stall-timeout", "-1s"}, json: `"stall_timeout": "-1s"`,
			opts: Options{Spec: Spec{StallTimeout: Duration(-time.Second)}}, err: "spec: stall_timeout (-stall-timeout) must not be negative, got -1s"},
		{name: "negative deadline", flags: []string{"-deadline", "-2s"}, json: `"deadline_ms": -2000`,
			opts: Options{Spec: Spec{Deadline: Millis(-2 * time.Second)}}, err: "spec: deadline_ms (-deadline) must not be negative, got -2s"},
		{name: "stale without skip", flags: []string{"-serve-stale"}, json: `"serve_stale": true`,
			opts: Options{Spec: Spec{ServeStale: true}}, err: "spec: serve_stale (-serve-stale) requires fault_policy (-fault-policy) skip-degraded: stale reads surface as degraded slices"},
		{name: "one gray level", flags: []string{"-gray", "1"}, json: `"gray": 1`,
			opts: Options{Spec: Spec{GrayLevels: 1}}, err: "spec: core: gray levels 1 out of range [2, 256]"},
		{name: "five dimensions", flags: []string{"-ndim", "5"}, json: `"ndim": 5`,
			opts: Options{Spec: Spec{NDim: 5}}, err: "spec: core: NDim 5 out of range [1, 4]"},
		{name: "flat roi", flags: []string{"-roi", "0x5x2x2"}, json: `"roi": [0,5,2,2]`,
			opts: Options{Spec: Spec{ROI: [4]int{0, 5, 2, 2}}}, err: "spec: core: ROI dimension 0 is 0, must be >= 1"},
		{name: "chunk under roi", flags: []string{"-roi", "5x5x2x2", "-chunk", "4x8x3x3"}, json: `"roi": [5,5,2,2], "chunk": [4,8,3,3]`,
			opts: Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, ChunkShape: [4]int{4, 8, 3, 3}}}, err: "spec: chunk (-chunk) 4x8x3x3 is smaller than roi (-roi) 5x5x2x2 in dimension 0"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			url := dataset
			if r.run {
				url = study
			}
			var flagged runspec.Spec
			fs := flag.NewFlagSet("haralick4d", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			flagged.Bind(fs)
			if err := fs.Parse(append([]string{"-dataset-url", url}, r.flags...)); err != nil {
				t.Fatal(err)
			}
			flagErr := flagged.Validate()
			body := `{"dataset": "` + url + `"`
			if r.json != "" {
				body += ", " + r.json
			}
			served, job, postErr := postSpec(t, ts.URL, body+"}")
			goErr := r.opts.Validate()
			analyzed, analyzeErr := AnalyzeDataset(url, &r.opts)

			if r.err != "" {
				for surface, err := range map[string]error{"flags": flagErr, "POST /jobs": postErr, "Options": goErr, "AnalyzeDataset": analyzeErr} {
					if err == nil || err.Error() != r.err {
						t.Errorf("%s: %v, want %q", surface, err, r.err)
					}
				}
				if !errors.Is(flagErr, runspec.ErrInvalid) || !errors.Is(goErr, runspec.ErrInvalid) {
					t.Errorf("untyped error: %v / %v", flagErr, goErr)
				}
				return
			}
			for surface, err := range map[string]error{"flags": flagErr, "POST /jobs": postErr, "Options": goErr} {
				if err != nil {
					t.Fatalf("%s refused a good run: %v", surface, err)
				}
			}
			want := configOf(t, r.opts.Spec)
			for surface, sp := range map[string]runspec.Spec{"flags": flagged, "POST /jobs": served} {
				if got := configOf(t, sp); got != want {
					t.Errorf("%s config differs from Options':\n%s\n%s", surface, got, want)
				}
			}
			if r.name == "defaults" || r.name == "explicit defaults" {
				for surface, sp := range map[string]runspec.Spec{"flags": flagged, "POST /jobs": served, "Options": r.opts.Spec} {
					sp.Dataset = ""
					if got := sp.Resolved(); !reflect.DeepEqual(got, runspec.Defaults()) {
						t.Errorf("%s resolves to %+v, want Defaults() %+v", surface, got, runspec.Defaults())
					}
				}
				cfg, _, _ := pipeline.ConfigFor(&r.opts.Spec, 3)
				if cfg.Analysis.Workers != 0 || cfg.ReadAhead != pipeline.ReadAheadAuto {
					t.Errorf("default run: kernel workers %d, read-ahead %d; want auto, auto", cfg.Analysis.Workers, cfg.ReadAhead)
				}
			}
			if !r.run {
				return
			}
			if analyzeErr != nil {
				t.Fatalf("AnalyzeDataset: %v", analyzeErr)
			}
			v := pollJob(t, ts.URL, job)
			if v.State != server.StateCompleted {
				t.Fatalf("POST /jobs: job %d %s: %s", job, v.State, v.Error)
			}
			jobGrids, err := filters.ReadUSODir(filepath.Join(state, "out", fmt.Sprintf("job-%d", job)), analyzed.OutputDims)
			if err != nil {
				t.Fatal(err)
			}
			for surface, grids := range map[string]map[Feature]*FloatGrid{"POST /jobs": jobGrids, "CLI body": runAsCLI(t, flagged)} {
				for _, f := range r.opts.Features {
					want, got := analyzed.Grids[f], grids[f]
					if got == nil || got.Dims != want.Dims {
						t.Fatalf("%s: %v grid %v, want dims %v", surface, f, got, want.Dims)
					}
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%s: %v[%d] = %v, AnalyzeDataset %v", surface, f, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		})
	}
}

// runAsCLI runs s through the run body as the CLI does for a flag line
// with -out added, and reads back the USO records it wrote.
func runAsCLI(t *testing.T, s runspec.Spec) map[Feature]*FloatGrid {
	t.Helper()
	s.OutDir = filepath.Join(t.TempDir(), "uso")
	ctx, cancel := pipeline.WithDeadline(context.Background(), &s)
	defer cancel()
	st, err := pipeline.OpenDataset(ctx, &s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := pipeline.Prepare(st, &s, pipeline.Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(ctx, pipeline.EngineLocal, &pipeline.RunOptions{Options: filter.Options{WireCodec: filter.CodecBinary}}); err != nil {
		t.Fatal(err)
	}
	grids, err := filters.ReadUSODir(s.OutDir, p.OutDims)
	if err != nil {
		t.Fatal(err)
	}
	return grids
}

// jobView is the part of a daemon job view these tests read.
type jobView struct {
	ID      int64        `json:"id"`
	State   server.State `json:"state"`
	Error   string       `json:"error"`
	ErrKind string       `json:"error_kind"`
}

// pollJob waits for a daemon job to reach a terminal state.
func pollJob(t *testing.T, base string, id int64) jobView {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("job %d did not settle", id)
	return jobView{}
}

// TestDeadlineBoundsTheOpen: deadline_ms bounds the whole run from the
// dataset open on, so a backend that stalls the header fetch fails the
// façade and a daemon job with context.DeadlineExceeded (the CLI's half is
// cmd/haralick4d's TestDeadlineBoundsTheOpen).
func TestDeadlineBoundsTheOpen(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // never answer: the client gives up, or the test ends
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stalled.Close)
	t.Cleanup(func() { close(release) })
	limit := 100 * time.Millisecond

	start := time.Now()
	_, err := AnalyzeDataset(stalled.URL, &Options{Spec: Spec{Deadline: Millis(limit)}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeDataset: err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 20*limit {
		t.Errorf("AnalyzeDataset returned after %v on a %v deadline", took, limit)
	}

	srv, err := server.New(server.Config{StateDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	_, id, err := postSpec(t, ts.URL, fmt.Sprintf(`{"dataset": %q, "output": "none", "deadline_ms": %d}`, stalled.URL, limit.Milliseconds()))
	if err != nil {
		t.Fatal(err)
	}
	if v := pollJob(t, ts.URL, id); v.State != server.StateFailed || v.ErrKind != "deadline_exceeded" {
		t.Fatalf("daemon job: %s (%s: %s), want failed deadline_exceeded", v.State, v.ErrKind, v.Error)
	}
}

// postSpec submits body and returns the spec the daemon accepted and the
// job's id, or its 400 as an error carrying the daemon's error text.
func postSpec(t *testing.T, base, body string) (runspec.Spec, int64, error) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID    int64        `json:"id"`
		Spec  runspec.Spec `json:"spec"`
		Error string       `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		return v.Spec, v.ID, nil
	case http.StatusBadRequest:
		return runspec.Spec{}, 0, errors.New(v.Error)
	}
	t.Fatalf("POST /jobs: status %d (%s)", resp.StatusCode, v.Error)
	return runspec.Spec{}, 0, nil
}

// configOf renders the pipeline configuration and layout ConfigFor makes of
// s on a three-node dataset, byte for byte.
func configOf(t *testing.T, s runspec.Spec) string {
	t.Helper()
	cfg, layout, err := pipeline.ConfigFor(&s, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v\n%#v", *cfg, *layout)
}

// TestOptionsRefusedEverywhere: negative texture copies, a negative
// deadline, serve-stale without skip-degraded and a CLI-only sink are
// refused by Validate and by both entry points, before any work.
func TestOptionsRefusedEverywhere(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, phantom(t), 2); err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Spec: Spec{Texture: -1}},
		{Spec: Spec{Deadline: -1}},
		{Spec: Spec{ServeStale: true}},
		{Spec: Spec{Output: runspec.OutputJPEG}},
		{Spec: Spec{OutDir: "maps"}},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v validated", o.Spec)
		}
		if _, err := AnalyzeDataset(dir, &o); err == nil {
			t.Errorf("AnalyzeDataset ran %+v", o.Spec)
		}
		if _, err := Analyze(phantom(t), &o); err == nil {
			t.Errorf("Analyze ran %+v", o.Spec)
		}
	}
}

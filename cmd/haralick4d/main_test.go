package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
	"haralick4d/internal/runspec"
	"haralick4d/internal/synthetic"
)

// The default run is the parallel kernel with self-sized read-ahead into
// USO files, not the sequential oracle.
func TestKernelWorkersDefaultIsAuto(t *testing.T) {
	c, err := parseArgs([]string{"-data", "study"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.spec.KernelWorkers != 0 {
		t.Errorf("-kernel-workers defaults to %d, want 0 (auto)", c.spec.KernelWorkers)
	}
	cfg, _, err := pipeline.ConfigFor(&c.spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Analysis.Workers != 0 || cfg.ReadAhead != pipeline.ReadAheadAuto || cfg.Output != pipeline.OutputUSO {
		t.Errorf("default run: workers %d, read-ahead %d, output %v; want auto, auto, USO", cfg.Analysis.Workers, cfg.ReadAhead, cfg.Output)
	}
	if want := (runspec.Spec{Dataset: "study"}); !reflect.DeepEqual(c.spec, want) {
		t.Errorf("an unset flag line gave %+v, want the zero spec %+v", c.spec, want)
	}
}

func TestValidateCountFlags(t *testing.T) {
	cases := []struct {
		iic     int
		wantErr string
	}{
		{1, ""},
		{4, ""},
		{0, "-iic must be >= 1, got 0"},
		{-2, "-iic must be >= 1, got -2"},
	}
	for _, c := range cases {
		err := validateCountFlags(c.iic)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("validateCountFlags(%d) = %v, want nil", c.iic, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("validateCountFlags(%d) = %v, want %q", c.iic, err, c.wantErr)
		}
	}
}

// TestRestartFlagShape drives the -checkpoint/-checkpoint-interval/-resume/
// -stall-timeout surface through the binary's own parser; each error case
// is one main turns into an exit-2 usage failure.
func TestRestartFlagShape(t *testing.T) {
	cases := []struct {
		name         string
		args         []string
		wantInterval time.Duration
		wantStall    time.Duration
		wantErr      string
	}{
		{name: "off"},
		{name: "full", args: []string{"-checkpoint", "run.ckpt", "-resume", "-checkpoint-interval", "500ms", "-stall-timeout", "2m"},
			wantInterval: 500 * time.Millisecond, wantStall: 2 * time.Minute},
		{name: "resume-without-checkpoint", args: []string{"-resume"}, wantErr: "-resume requires -checkpoint"},
		{name: "orphan-interval", args: []string{"-checkpoint-interval", "1s"}, wantErr: "-checkpoint-interval without -checkpoint"},
		{name: "zero-interval", args: []string{"-checkpoint", "run.ckpt", "-checkpoint-interval", "0s"}, wantErr: "-checkpoint-interval must be positive"},
		{name: "bad-stall", args: []string{"-stall-timeout", "later"}, wantErr: `invalid value "later" for flag -stall-timeout`},
		{name: "zero-stall", args: []string{"-stall-timeout", "0s"}}, // 0 is off, as in a job spec
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseArgs(append([]string{"-data", "study"}, c.args...), io.Discard)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.checkpoint.Interval != c.wantInterval || time.Duration(got.spec.StallTimeout) != c.wantStall {
				t.Fatalf("got (%s, %s), want (%s, %s)", got.checkpoint.Interval, time.Duration(got.spec.StallTimeout), c.wantInterval, c.wantStall)
			}
		})
	}
}

// TestParseArgsRejects pins command lines that used to panic or run: each
// is a usage error now, with the message the other surfaces give.
func TestParseArgsRejects(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-texture", "-1"}, "spec: texture (-texture) must not be negative, got -1"},
		{[]string{"-iic", "-2"}, "-iic must be >= 1, got -2"},
		{[]string{"-roi", "5x5x2x2junk"}, `invalid value "5x5x2x2junk" for flag -roi`},
		{[]string{"-roi", "5x5x2"}, `invalid value "5x5x2" for flag -roi`},
		{[]string{"-format", "tiff"}, `invalid value "tiff" for flag -format`},
		{[]string{"-readahead", "-1"}, "spec: readahead (-readahead) must not be negative, got -1"},
		{[]string{"-readahead", "deep"}, `invalid value "deep" for flag -readahead`},
		{[]string{"-kernel-workers", "-1"}, "spec: kernel_workers (-kernel-workers) must not be negative, got -1"},
		{[]string{"-serve-stale"}, "serve_stale (-serve-stale) requires fault_policy (-fault-policy) skip-degraded"},
		{[]string{"-deadline", "-1s"}, "spec: deadline_ms (-deadline) must not be negative"},
		{[]string{"-gray", "1"}, "gray levels 1 out of range"},
		{[]string{"-dataset-url", "ftp://host/x"}, "unknown dataset URL scheme"},
		{[]string{"-kernel", "legacy"}, "flag provided but not defined: -kernel"},
		{[]string{"-kernel-block", "16"}, "flag provided but not defined: -kernel-block"},
		{[]string{"-autotune"}, "flag provided but not defined: -autotune"},
		{[]string{"-autotune-interval", "5ms"}, "flag provided but not defined: -autotune-interval"},
		{[]string{"-autotune-seed", "7"}, "flag provided but not defined: -autotune-seed"},
		{[]string{"-dicom"}, "flag provided but not defined: -dicom"},
		{[]string{"-cache-blocks", "64"}, "flag provided but not defined: -cache-blocks"},
		{[]string{"-retry", "0,5ms"}, "-retry: resilience: invalid retry attempts"},
		{[]string{"-retry-budget", "10,0"}, "-retry-budget: resilience: invalid budget replenish ratio"},
	}
	for _, c := range cases {
		if _, err := parseArgs(append([]string{"-data", "study"}, c.args...), io.Discard); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.wantErr)
		}
	}
	if _, err := parseArgs(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "-data or -dataset-url is required") {
		t.Errorf("no dataset: err = %v", err)
	}
}

// TestBreakerArmsTCPLinksWithoutRetry: -breaker and -retry-budget are one
// policy with -retry, so a breaker alone arms one on every node pair the
// TCP engine uses, with single-shot sends.
func TestBreakerArmsTCPLinksWithoutRetry(t *testing.T) {
	dir := t.TempDir()
	if _, err := dataset.Write(filepath.Join(dir, "data"), synthetic.Generate(synthetic.Config{Dims: [4]int{12, 12, 3, 3}, Seed: 3}), 2); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	c, err := parseArgs([]string{"-data", filepath.Join(dir, "data"), "-engine", "tcp", "-breaker", "5,1s",
		"-roi", "4x4x2x2", "-gray", "8", "-texture", "2", "-format", "none", "-metrics-json", report}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Network []struct {
			FromNode     int    `json:"from_node"`
			ToNode       int    `json:"to_node"`
			BreakerState string `json:"breaker_state"`
		} `json:"network"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Network) == 0 {
		t.Fatal("TCP run reported no node links")
	}
	for _, l := range rep.Network {
		if l.BreakerState != resilience.StateClosed {
			t.Errorf("link %d->%d breaker state %q, want %q", l.FromNode, l.ToNode, l.BreakerState, resilience.StateClosed)
		}
	}
}

// TestDeadlineBoundsTheOpen: -deadline bounds the whole run from the
// dataset open on, as deadline_ms does for the library and the daemon, so a
// backend that stalls the header fetch fails the run with
// context.DeadlineExceeded instead of hanging.
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
	c, err := parseArgs([]string{"-dataset-url", stalled.URL, "-deadline", "100ms", "-format", "none"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.run() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the run outlived its 100ms deadline by 10s")
	}
}

// TestGraphSpec: a -graph document decodes onto the flags' run spec, so
// what it omits keeps the flag or the spec default and what it holds wins.
func TestGraphSpec(t *testing.T) {
	for _, c := range []struct {
		name, xml string
		args      []string
		check     func(*pipeline.Config, *pipeline.Layout) bool
	}{
		{"omitted-analysis-keeps-flags", `<pipeline><impl>hmp</impl></pipeline>`, []string{"-rep", "sparse", "-roi", "8x8x2x2", "-gray", "16"},
			func(cfg *pipeline.Config, _ *pipeline.Layout) bool {
				return cfg.Analysis.ROI == [4]int{8, 8, 2, 2} && cfg.Analysis.GrayLevels == 16 && cfg.Analysis.Representation == core.SparseMatrix
			}},
		{"omitted-policy-is-demand-driven", `<pipeline><impl>split</impl></pipeline>`, nil,
			func(cfg *pipeline.Config, _ *pipeline.Layout) bool { return cfg.Policy == filter.DemandDriven }},
		{"present-attribute-beats-flag", `<pipeline><analysis gray="8"/><layout><hmp nodes="5 5"/></layout></pipeline>`, []string{"-gray", "16", "-texture", "3"},
			func(cfg *pipeline.Config, l *pipeline.Layout) bool {
				return cfg.Analysis.GrayLevels == 8 && reflect.DeepEqual(l.HMPNodes, []int{5, 5})
			}},
		{"kernel-workers", `<pipeline><analysis roi="4x4x2x2"/></pipeline>`, []string{"-kernel-workers", "1"},
			func(cfg *pipeline.Config, _ *pipeline.Layout) bool { return cfg.Analysis.Workers == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "g.xml")
			if err := os.WriteFile(path, []byte(c.xml), 0o644); err != nil {
				t.Fatal(err)
			}
			cl, err := parseArgs(append([]string{"-data", "study", "-format", "none", "-graph", path}, c.args...), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cfg, layout, err := pipeline.ConfigFor(&cl.spec, 2)
			if err == nil {
				err = cl.place(cfg, layout)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !c.check(cfg, layout) {
				t.Errorf("%s under %v ran %+v on %+v", c.xml, c.args, *cfg, *layout)
			}
		})
	}
}

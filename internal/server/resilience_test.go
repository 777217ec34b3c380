package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/resilience"
	"haralick4d/internal/runspec"
)

// TestJobDeadlineExceeded: a job with a deadline far shorter than its
// runtime fails with error_kind "deadline_exceeded", not "canceled".
func TestJobDeadlineExceeded(t *testing.T) {
	url := writeTestDataset(t)
	outDir := filepath.Join(t.TempDir(), "out")
	_, ts := newTestServer(t, Config{MaxJobs: 1})

	sp := testSpec(url, outDir)
	sp.Deadline = runspec.Millis(time.Millisecond)
	v := decodeView(t, postJSON(t, ts.URL+"/jobs", sp))
	v = pollTerminal(t, ts.URL, v.ID, State.Terminal)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want %s (error: %s)", v.State, StateFailed, v.Error)
	}
	if v.ErrKind != "deadline_exceeded" {
		t.Fatalf("error_kind = %q, want \"deadline_exceeded\" (error: %s)", v.ErrKind, v.Error)
	}
}

// TestJobBadHeader: a dataset whose header declares negative dims fails the
// job at the open with error_kind "bad_header", its own kind.
func TestJobBadHeader(t *testing.T) {
	b := dataset.NewMemBackend()
	b.WriteFile("dataset.json", []byte(`{"version":1,"dims":[-112,-112,9,9],"nodes":4}`))
	dataset.RegisterMem("server-bad-header", b)
	defer dataset.UnregisterMem("server-bad-header")
	_, ts := newTestServer(t, Config{MaxJobs: 1})

	v := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec("mem://server-bad-header", filepath.Join(t.TempDir(), "out"))))
	v = pollTerminal(t, ts.URL, v.ID, State.Terminal)
	if v.State != StateFailed || v.ErrKind != "bad_header" {
		t.Fatalf("state %s, error_kind %q, want failed and \"bad_header\" (error: %s)", v.State, v.ErrKind, v.Error)
	}
}

// TestSubmitShedsWhileBreakerOpen: a submit naming a backend host whose
// shared breaker is open is refused with 503 + Retry-After, and the
// brownout is visible on /stats and /healthz.
func TestSubmitShedsWhileBreakerOpen(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxJobs: 1,
		Resilience: &resilience.Policy{
			Breaker: &resilience.BreakerConfig{ConsecFails: 1, OpenFor: 30 * time.Second},
		},
	})

	// Trip the host's breaker the way a running job would: one failed call.
	const backend = "http://127.0.0.1:9"
	set := s.resilienceFor(backend + "/study")
	if set == nil || set.Breaker == nil {
		t.Fatal("expected a breaker for an http dataset URL")
	}
	tok, err := set.Breaker.Allow()
	if err != nil {
		t.Fatal(err)
	}
	set.Breaker.Record(tok, errors.New("connection refused"))
	if st := set.Breaker.State(); st != resilience.StateOpen {
		t.Fatalf("breaker state = %s, want open", st)
	}

	resp := postJSON(t, ts.URL+"/jobs", testSpec(backend+"/study", t.TempDir()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}

	// A different (local) dataset is unaffected by that host's breaker.
	url := writeTestDataset(t)
	ok := decodeView(t, postJSON(t, ts.URL+"/jobs", testSpec(url, filepath.Join(t.TempDir(), "out"))))
	v := pollTerminal(t, ts.URL, ok.ID, State.Terminal)
	if v.State != StateCompleted {
		t.Fatalf("local job state = %s, want completed (error: %s)", v.State, v.Error)
	}

	// /stats carries the per-host resilience snapshot.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Resilience map[string]resilience.SetStats `json:"resilience"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if got := st.Resilience[backend]; got.BreakerState != resilience.StateOpen || got.BreakerTrips != 1 {
		t.Fatalf("stats resilience[%s] = %+v, want open with 1 trip", backend, got)
	}

	// /healthz names the browned-out backend.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, "ok") || !strings.Contains(body, fmt.Sprintf("breaker %s: open", backend)) {
		t.Fatalf("healthz = %q, want ok + breaker line", body)
	}
}

// TestSubmitAdmitsWhenProbeDue: once an open breaker's OpenFor has elapsed,
// submissions against that host are admitted again so the first job's reads
// perform the half-open probe. The only Allow callers are running jobs'
// backend reads, so shedding past that point would leave a host with no
// in-flight jobs unprobed — and shed — forever (regression test for
// permanent admission shedding after a brownout).
func TestSubmitAdmitsWhenProbeDue(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	s, _ := newTestServer(t, Config{
		MaxJobs: 1,
		Resilience: &resilience.Policy{
			Breaker: &resilience.BreakerConfig{ConsecFails: 1, OpenFor: 30 * time.Second, Clock: clock},
		},
	})

	const dsURL = "http://127.0.0.1:9/study"
	set := s.resilienceFor(dsURL)
	tok, err := set.Breaker.Allow()
	if err != nil {
		t.Fatal(err)
	}
	set.Breaker.Record(tok, errors.New("connection refused"))

	if after, open := s.breakerOpenFor(dsURL); !open || after < 1 {
		t.Fatalf("breakerOpenFor within OpenFor = (%d, %v), want shedding with positive Retry-After", after, open)
	}

	mu.Lock()
	now = now.Add(30 * time.Second)
	mu.Unlock()
	if after, open := s.breakerOpenFor(dsURL); open {
		t.Fatalf("breakerOpenFor after OpenFor elapsed = (%d, open), want admitted so the next job probes", after)
	}
}

// TestSpecResilienceValidation: deadline_ms and serve_stale are validated
// at submit time.
func TestSpecResilienceValidation(t *testing.T) {
	url := writeTestDataset(t)
	_, ts := newTestServer(t, Config{})

	bad := testSpec(url, t.TempDir())
	bad.Deadline = runspec.Millis(-5 * time.Millisecond)
	resp := postJSON(t, ts.URL+"/jobs", bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms: status = %d, want 400", resp.StatusCode)
	}

	stale := testSpec(url, t.TempDir())
	stale.ServeStale = true // without fault_policy skip-degraded
	resp = postJSON(t, ts.URL+"/jobs", stale)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("serve_stale without skip-degraded: status = %d, want 400", resp.StatusCode)
	}

	good := testSpec(url, t.TempDir())
	good.ServeStale = true
	good.FaultPolicy = fault.SkipDegraded
	resp = postJSON(t, ts.URL+"/jobs", good)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("serve_stale with skip-degraded: status = %d, want 202", resp.StatusCode)
	}
}

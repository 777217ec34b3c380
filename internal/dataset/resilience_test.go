package dataset

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/resilience"
)

// TestHTTPRetryAfterHonored is the regression test for Retry-After
// handling: a server that sheds the first request with 503 + Retry-After
// must see the client come back after the advertised wait, not after the
// 10ms backoff.
func TestHTTPRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	var times [2]time.Time
	body := []byte("retry-after payload")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			times[n-1] = time.Now()
		}
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write(body)
	}))
	defer srv.Close()

	be, err := NewHTTPBackend(srv.URL, srv.Client(), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := be.ReadFile(context.Background(), "dataset.json")
	if err != nil {
		t.Fatalf("ReadFile through the 503: %v", err)
	}
	if string(data) != string(body) {
		t.Fatalf("body = %q, want %q", data, body)
	}
	if gap := times[1].Sub(times[0]); gap < 900*time.Millisecond {
		t.Fatalf("retry came %v after the 503; Retry-After: 1 not honored", gap)
	}
}

// TestHTTPRetryAfterCappedByDeadline: a Retry-After far beyond the context
// deadline must not strand the caller sleeping — the attempt aborts at the
// deadline instead.
func TestHTTPRetryAfterCappedByDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	be, err := NewHTTPBackend(srv.URL, srv.Client(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = be.ReadFile(ctx, "dataset.json")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("request took %v; Retry-After was not capped at the deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestHTTP429Retried: 429 responses are transient — the request must
// succeed once the server stops shedding.
func TestHTTP429Retried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	be, err := NewHTTPBackend(srv.URL, srv.Client(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.ReadFile(context.Background(), "dataset.json"); err != nil {
		t.Fatalf("ReadFile through a 429: %v", err)
	}
}

// TestHTTPBreakerFastFail: once consecutive failures trip the breaker,
// requests stop reaching the server and fail immediately with
// ErrBackendUnavailable wrapping resilience.ErrOpen.
func TestHTTPBreakerFastFail(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	set := (&resilience.Policy{
		Retry:   resilience.Retry{Attempts: 1},
		Breaker: &resilience.BreakerConfig{ConsecFails: 3, OpenFor: time.Hour},
	}).NewSet()
	be, err := NewHTTPBackend(srv.URL, srv.Client(), set)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := be.ReadFile(context.Background(), "dataset.json"); !errors.Is(err, ErrBackendUnavailable) {
			t.Fatalf("request %d: err = %v, want ErrBackendUnavailable", i, err)
		}
	}
	before := calls.Load()
	_, err = be.ReadFile(context.Background(), "dataset.json")
	if !errors.Is(err, ErrBackendUnavailable) || !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("err = %v, want ErrBackendUnavailable wrapping ErrOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	st := be.Stats()
	if st.BreakerState != resilience.StateOpen || st.BreakerTrips != 1 {
		t.Fatalf("stats = state %q trips %d, want open/1", st.BreakerState, st.BreakerTrips)
	}
}

// TestHTTPBudgetBoundsRetries: with the shared budget empty, the retry loop
// abandons immediately instead of burning its full attempt count.
func TestHTTPBudgetBoundsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	set := (&resilience.Policy{
		Retry:  resilience.Retry{Attempts: 10},
		Budget: &resilience.BudgetConfig{Tokens: 2, Ratio: 0.1},
	}).NewSet()
	be, err := NewHTTPBackend(srv.URL, srv.Client(), set)
	if err != nil {
		t.Fatal(err)
	}

	_, err = be.ReadFile(context.Background(), "dataset.json")
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("err = %v, want ErrBackendUnavailable", err)
	}
	// First attempt is free; the 2-token budget funds exactly 2 retries.
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 free + 2 budgeted)", got)
	}
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted in chain", err)
	}
	st := be.Stats()
	if st.RetryBudgetSpent != 2 || st.RetryBudgetDenied != 1 {
		t.Fatalf("budget spent=%d denied=%d, want 2/1", st.RetryBudgetSpent, st.RetryBudgetDenied)
	}
}

// TestHTTPHedgedRead: a first request that hangs past the hedge threshold
// is raced by a second; the hedge's response answers the read and the
// counters record the win.
func TestHTTPHedgedRead(t *testing.T) {
	payload := []byte("0123456789abcdef")
	var calls atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// First GET stalls until the test ends.
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		http.ServeContent(w, r, "slice", time.Time{}, bytes.NewReader(payload))
	}))
	defer srv.Close()
	defer close(release)

	set := (&resilience.Policy{Retry: resilience.Retry{Attempts: 1}, HedgeAfter: 20 * time.Millisecond}).NewSet()
	be, err := NewHTTPBackend(srv.URL, srv.Client(), set)
	if err != nil {
		t.Fatal(err)
	}

	obj, err := be.Open(context.Background(), "slice.raw")
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 8)
	n, err := obj.ReadAt(context.Background(), p, 4)
	if err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if string(p) != string(payload[4:12]) {
		t.Fatalf("read %q, want %q", p, payload[4:12])
	}
	st := be.Stats()
	if st.HedgedReads != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", st.HedgedReads, st.HedgeWins)
	}
	// Only the winning attempt's I/O may reach the backend report: one
	// read of 8 bytes, no matter how the race resolved.
	if st.Reads != 1 || st.ReadBytes != 8 {
		t.Fatalf("reads=%d bytes=%d after hedged read, want 1/8 (winner only)", st.Reads, st.ReadBytes)
	}
}

// TestServeStaleConvertsUnavailable: with ServeStale on, an unreachable
// backend degrades positioned reads (skippable) instead of aborting the
// run, while header reads stay fatal.
func TestServeStaleConvertsUnavailable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	be, err := NewBackend(srv.URL, &URLOptions{Resilience: &resilience.Set{Retry: resilience.Retry{Attempts: 1}}, ServeStale: true})
	if err != nil {
		t.Fatal(err)
	}
	// Opening costs no request, so the dead backend shows on the read.
	obj, err := be.Open(context.Background(), "node000/slice.raw")
	if err != nil {
		t.Fatalf("Open err = %v, want nil (no I/O)", err)
	}
	_, err = obj.ReadAt(context.Background(), make([]byte, 8), 0)
	if !errors.Is(err, ErrDegradedData) {
		t.Fatalf("ReadAt err = %v, want ErrDegradedData", err)
	}
	if errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("ReadAt err = %v; serve-stale must strip ErrBackendUnavailable so the slice is skippable", err)
	}
	// Metadata reads must not degrade: no header, no dataset.
	_, err = be.ReadFile(context.Background(), "dataset.json")
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("ReadFile err = %v, want ErrBackendUnavailable (fatal)", err)
	}
	if got := be.Stats().StaleReads; got != 1 {
		t.Fatalf("stale reads = %d, want 1", got)
	}
}

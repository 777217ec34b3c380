package dataset

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"haralick4d/internal/fault"
	"haralick4d/internal/resilience"
)

func TestParseURL(t *testing.T) {
	cases := []struct {
		raw, scheme, rest string
		wantErr           bool
	}{
		{raw: "/data/study1", scheme: "file", rest: "/data/study1"},
		{raw: "relative/dir", scheme: "file", rest: "relative/dir"},
		{raw: "file:///data/study1", scheme: "file", rest: "/data/study1"},
		{raw: "mem://fixture", scheme: "mem", rest: "fixture"},
		{raw: "http://host:81/ds", scheme: "http", rest: "http://host:81/ds"},
		{raw: "https://host/ds", scheme: "https", rest: "https://host/ds"},
		{raw: "", wantErr: true},
		{raw: "file://", wantErr: true},
		{raw: "mem://", wantErr: true},
		{raw: "mem://a/b", wantErr: true},
		{raw: "http://", wantErr: true},
		{raw: "ftp://host/ds", wantErr: true},
		{raw: "s3://bucket/ds", wantErr: true},
	}
	for _, c := range cases {
		scheme, rest, err := ParseURL(c.raw)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseURL(%q) = (%q, %q), want error", c.raw, scheme, rest)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseURL(%q): %v", c.raw, err)
			continue
		}
		if scheme != c.scheme || rest != c.rest {
			t.Errorf("ParseURL(%q) = (%q, %q), want (%q, %q)", c.raw, scheme, rest, c.scheme, c.rest)
		}
	}
}

// TestOpenURLFileMatchesOpen verifies the shim contract: Open(dir) and
// OpenURL("file://dir") read back the identical volume.
func TestOpenURLFileMatchesOpen(t *testing.T) {
	v := randomVolume(11, [4]int{8, 6, 4, 3})
	dir := t.TempDir()
	if _, err := Write(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	st, err := OpenURL(context.Background(), "file://"+dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	back, err := st.ReadVolume()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %d != %d", i, back.Data[i], v.Data[i])
		}
	}
	if got := st.Stats().Scheme; got != "file" {
		t.Errorf("scheme = %q, want file", got)
	}
	if st.Dir != dir {
		t.Errorf("Dir = %q, want %q", st.Dir, dir)
	}
}

// TestLocalBackendHandleReuse verifies the FD cache: reading the same slice
// repeatedly opens the file once, while a disabled cache (maxOpen < 0) opens
// per read.
func TestLocalBackendHandleReuse(t *testing.T) {
	v := randomVolume(12, [4]int{8, 6, 2, 2})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	const reads = 5
	for _, tc := range []struct {
		maxOpen   int
		wantOpens int64
	}{
		{maxOpen: 0, wantOpens: 1},      // default cache: one open, reused
		{maxOpen: -1, wantOpens: reads}, // open-per-read baseline
	} {
		be := NewLocalBackend(dir, tc.maxOpen)
		st, err := OpenBackend(context.Background(), be)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := st.NodeIndex(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads; i++ {
			if _, err := st.ReadSlice(0, refs[0]); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.Stats().Opens; got != tc.wantOpens {
			t.Errorf("maxOpen=%d: opens = %d, want %d", tc.maxOpen, got, tc.wantOpens)
		}
		st.Close()
	}
}

// TestLocalBackendEviction verifies the FD budget holds: with maxOpen 2 and
// 4 distinct files read round-robin twice, every open file stays within
// budget and reads still succeed.
func TestLocalBackendEviction(t *testing.T) {
	v := randomVolume(13, [4]int{8, 6, 2, 2}) // 4 slices on 1 node
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	be := NewLocalBackend(dir, 2)
	st, err := OpenBackend(context.Background(), be)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 4 {
		t.Fatalf("refs = %d, want 4", len(refs))
	}
	for pass := 0; pass < 2; pass++ {
		for _, ref := range refs {
			if _, err := st.ReadSlice(0, ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 8 reads over 4 files with a 2-handle budget: every read of a file not
	// among the 2 most recent must reopen.
	if got := st.Stats().Opens; got < 4 {
		t.Errorf("opens = %d, want >= 4 (eviction must have reopened)", got)
	}
}

// TestLocalBackendOpenPastBudget: with more handles referenced at once than
// the cache may hold, the one just opened is the only unreferenced entry for
// an instant — it must not be the one evicted. Hold two Objects under
// maxOpen 2, open a third, read it, close all: every read succeeds and the
// cache drains back inside its bound.
func TestLocalBackendOpenPastBudget(t *testing.T) {
	dir := t.TempDir()
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("slice "+n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	be := NewLocalBackend(dir, 2)
	defer be.Close()
	ctx := context.Background()
	var held []Object
	for _, n := range names {
		o, err := be.Open(ctx, n)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, o)
		buf := make([]byte, 7)
		if _, err := o.ReadAt(ctx, buf, 0); err != nil && err != io.EOF {
			t.Fatalf("reading %q with %d handles held: %v", n, len(held), err)
		}
		if string(buf) != "slice "+n {
			t.Fatalf("read %q from %q", buf, n)
		}
	}
	for _, o := range held {
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
	}
	be.mu.Lock()
	cached := be.lru.Len()
	be.mu.Unlock()
	if cached > 2 {
		t.Fatalf("%d handles cached after every Object closed, bound is 2", cached)
	}
}

// TestLocalBackendConcurrentOpens: 256 readers over 300 files and a 128-handle
// cache, so the cache is over its bound with everything referenced most of the
// time. No read may find its file closed under it.
func TestLocalBackendConcurrentOpens(t *testing.T) {
	const files, readers, maxOpen = 300, 256, 128
	dir := t.TempDir()
	for i := 0; i < files; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprint(i)), []byte(fmt.Sprintf("%04d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	be := NewLocalBackend(dir, maxOpen)
	defer be.Close()
	ctx := context.Background()
	// All readers hold their first handle until every one has it, so 256
	// are referenced at once against a bound of 128.
	var opened, done sync.WaitGroup
	opened.Add(readers)
	for r := 0; r < readers; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for k, i := 0, r; i < 3*files; k, i = k+1, i+readers {
				name := i % files
				o, err := be.Open(ctx, fmt.Sprint(name))
				if err != nil {
					t.Errorf("open %d: %v", name, err)
					return
				}
				if k == 0 {
					opened.Done()
					opened.Wait()
				}
				buf := make([]byte, 4)
				if _, err := o.ReadAt(ctx, buf, 0); err != nil && err != io.EOF {
					t.Errorf("read %d: %v", name, err)
				} else if string(buf) != fmt.Sprintf("%04d", name) {
					t.Errorf("read %q from file %d", buf, name)
				}
				o.Close()
			}
		}(r)
	}
	done.Wait()
	be.mu.Lock()
	cached := be.lru.Len()
	be.mu.Unlock()
	if cached > maxOpen {
		t.Fatalf("%d handles cached at rest, bound is %d", cached, maxOpen)
	}
}

// TestWrapObjectsFaultInjection wires the io.ReaderAt fault injectors into
// the backend seam and verifies the PR-4 degraded-read semantics apply:
// corruption is caught by the checksum, truncation by the read, and both
// classify as ErrDegradedData.
func TestWrapObjectsFaultInjection(t *testing.T) {
	v := randomVolume(14, [4]int{8, 6, 2, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt", func(t *testing.T) {
		be := WrapObjects(NewLocalBackend(dir, 0), func(name string, r io.ReaderAt) io.ReaderAt {
			return &corruptAt{r: r, off: 3}
		})
		st, err := OpenBackend(context.Background(), be)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		refs, _ := st.NodeIndex(0)
		_, err = st.ReadSlice(0, refs[0])
		if !errors.Is(err, ErrDegradedData) {
			t.Errorf("corrupt read error = %v, want ErrDegradedData", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		be := WrapObjects(NewLocalBackend(dir, 0), func(name string, r io.ReaderAt) io.ReaderAt {
			return &truncAt{r: r, n: 10}
		})
		st, err := OpenBackend(context.Background(), be)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		refs, _ := st.NodeIndex(0)
		_, err = st.ReadSlice(0, refs[0])
		if !errors.Is(err, ErrDegradedData) {
			t.Errorf("truncated read error = %v, want ErrDegradedData", err)
		}
	})
}

// corruptAt and truncAt mirror fault.CorruptReaderAt / fault.TruncatedReaderAt
// locally (the fault package sits above dataset in the dependency order).
type corruptAt struct {
	r   io.ReaderAt
	off int64
}

func (c *corruptAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	if i := c.off - off; i >= 0 && i < int64(n) {
		p[i] ^= 0xFF
	}
	return n, err
}

type truncAt struct {
	r io.ReaderAt
	n int64
}

func (t *truncAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= t.n {
		return 0, io.EOF
	}
	if max := t.n - off; int64(len(p)) > max {
		n, err := t.r.ReadAt(p[:max], off)
		if err == nil {
			err = io.EOF
		}
		return n, err
	}
	return t.r.ReadAt(p, off)
}

func TestMemBackendRoundTrip(t *testing.T) {
	v := randomVolume(15, [4]int{8, 6, 3, 2})
	b, meta, err := WriteMemDataset(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Nodes != 3 || !meta.Checksums {
		t.Fatalf("meta = %+v", meta)
	}
	st, err := OpenBackend(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Validate(); err != nil {
		t.Error(err)
	}
	back, err := st.ReadVolume()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %d != %d", i, back.Data[i], v.Data[i])
		}
	}
	if st.Dir != "" {
		t.Errorf("mem store Dir = %q, want empty", st.Dir)
	}
}

func TestMemRegistry(t *testing.T) {
	v := randomVolume(16, [4]int{8, 6, 2, 1})
	b, _, err := WriteMemDataset(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	RegisterMem("backend-test-fixture", b)
	defer UnregisterMem("backend-test-fixture")
	st, err := OpenURL(context.Background(), "mem://backend-test-fixture", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats().URL; got != "mem://backend-test-fixture" {
		t.Errorf("URL = %q", got)
	}
	if _, err := OpenURL(context.Background(), "mem://no-such-registration", nil); err == nil {
		t.Error("unregistered mem URL accepted")
	}
}

// serveDataset serves a dataset directory the way cmd/dataserve does.
func serveDataset(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPBackendRoundTrip(t *testing.T) {
	v := randomVolume(17, [4]int{8, 6, 3, 2})
	dir := t.TempDir()
	if _, err := Write(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	srv := serveDataset(t, dir)
	st, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Validate(); err != nil {
		t.Error(err)
	}
	back, err := st.ReadVolume()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %d != %d", i, back.Data[i], v.Data[i])
		}
	}
	// Region reads exercise the ranged-GET path with sub-file offsets.
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readRegion(st, 0, refs[0], 2, 6, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := v.Slice(refs[0].Z, refs[0].T)
	for y := 1; y < 5; y++ {
		for x := 2; x < 6; x++ {
			if got[(y-1)*4+(x-2)] != want[y*8+x] {
				t.Fatalf("region mismatch at (%d,%d)", x, y)
			}
		}
	}
	s := st.Stats()
	if s.Scheme != "http" || s.Reads == 0 || s.ReadBytes == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHTTPBackendMissingSliceIsDegraded(t *testing.T) {
	v := randomVolume(18, [4]int{8, 6, 2, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	st0, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := st0.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	st0.Close()
	if err := os.Remove(st0.NodeDir(0) + "/" + refs[0].File); err != nil {
		t.Fatal(err)
	}
	srv := serveDataset(t, dir)
	st, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = st.ReadSlice(0, refs[0])
	if !errors.Is(err, ErrDegradedData) {
		t.Errorf("missing remote slice error = %v, want ErrDegradedData", err)
	}
}

func TestHTTPBackendUnavailable(t *testing.T) {
	v := randomVolume(19, [4]int{8, 6, 2, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	srv := serveDataset(t, dir)
	st, err := OpenURL(context.Background(), srv.URL, &URLOptions{Resilience: &resilience.Set{Retry: resilience.Retry{Attempts: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // the remote store goes away mid-run
	_, err = st.ReadSlice(0, refs[0])
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Errorf("dead server error = %v, want ErrBackendUnavailable", err)
	}
	if errors.Is(err, ErrDegradedData) {
		t.Error("dead server classified as degraded data (skippable)")
	}
}

// TestHTTPBackendRetries verifies the retry budget absorbs transient 5xx
// responses: with two injected failures and a 3-attempt budget the read
// succeeds.
func TestHTTPBackendRetries(t *testing.T) {
	v := randomVolume(20, [4]int{8, 6, 2, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	fails := 2
	inner := http.FileServer(http.Dir(dir))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 && r.Method == http.MethodGet {
			fails--
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	st, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	back, err := st.ReadVolume()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %d != %d", i, back.Data[i], v.Data[i])
		}
	}
	if fails != 0 {
		t.Errorf("injected failures remaining: %d", fails)
	}
}

// roundTripperFunc adapts a function to http.RoundTripper.
type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// assertCanceled checks an HTTP-backend error surfaces the caller's
// cancellation unmarked: cancellation is not a backend failure, and marking
// it ErrBackendUnavailable would send the failover scheduler declaring dead
// a copy that was never unhealthy.
func assertCanceled(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrBackendUnavailable) {
		t.Error("cancellation misclassified as ErrBackendUnavailable")
	}
}

// TestHTTPBackendCancellation pins the retry loop's contract with
// cancellation: a canceled context aborts the attempt budget immediately —
// before the first request, between retries, or mid-body — and the error is
// ctx.Err(), never dressed up as a backend failure.
func TestHTTPBackendCancellation(t *testing.T) {
	v := randomVolume(21, [4]int{8, 6, 2, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	srv := serveDataset(t, dir)

	t.Run("pre-canceled", func(t *testing.T) {
		flaky := &fault.FlakyTransport{}
		be, err := NewHTTPBackend(srv.URL, &http.Client{Transport: flaky}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = be.ReadFile(ctx, "dataset.json")
		assertCanceled(t, err)
		if n := flaky.Calls(); n != 0 {
			t.Errorf("pre-canceled read issued %d requests, want 0", n)
		}
	})

	t.Run("canceled-between-attempts", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		flaky := &fault.FlakyTransport{FailEvery: 1} // every attempt dies
		// The caller gives up as soon as the first attempt fails; the rest
		// of the 3-attempt budget must not be spent.
		tr := roundTripperFunc(func(r *http.Request) (*http.Response, error) {
			resp, rerr := flaky.RoundTrip(r)
			cancel()
			return resp, rerr
		})
		be, err := NewHTTPBackend(srv.URL, &http.Client{Transport: tr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = be.ReadFile(ctx, "dataset.json")
		assertCanceled(t, err)
		if n := flaky.Calls(); n != 1 {
			t.Errorf("canceled retry loop issued %d requests, want 1", n)
		}
	})

	t.Run("canceled-mid-body", func(t *testing.T) {
		released := make(chan struct{})
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			w.WriteHeader(http.StatusOK)
			w.Write(make([]byte, 16))
			w.(http.Flusher).Flush()
			close(released) // body stays short until the client goes away
			<-r.Context().Done()
		}))
		defer slow.Close()
		be, err := NewHTTPBackend(slow.URL, nil, &resilience.Set{Retry: resilience.Retry{Attempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-released
			cancel()
		}()
		_, err = be.ReadFile(ctx, "any")
		assertCanceled(t, err)
	})

	t.Run("canceled-mid-range-read", func(t *testing.T) {
		released := make(chan struct{})
		slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			w.Header().Set("Content-Range", "bytes 0-4095/4096")
			w.WriteHeader(http.StatusPartialContent)
			w.Write(make([]byte, 16))
			w.(http.Flusher).Flush()
			close(released)
			<-r.Context().Done()
		}))
		defer slow.Close()
		be, err := NewHTTPBackend(slow.URL, nil, &resilience.Set{Retry: resilience.Retry{Attempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		obj, err := be.Open(context.Background(), "any")
		if err != nil {
			t.Fatal(err)
		}
		defer obj.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-released
			cancel()
		}()
		_, err = obj.ReadAt(ctx, make([]byte, 4096), 0)
		assertCanceled(t, err)
	})
}

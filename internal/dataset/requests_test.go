package dataset

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"haralick4d/internal/readahead"
)

// requestLog records the method and Range header of every request a dataset
// server receives, in arrival order.
type requestLog struct {
	mu   sync.Mutex
	reqs []string // "<METHOD> <Range>"
}

func (l *requestLog) add(r *http.Request) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r.Method+" "+r.Header.Get("Range"))
	l.mu.Unlock()
}

// take returns the requests logged since the last take.
func (l *requestLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

// loggedServer serves dir the way cmd/dataserve does, logging every request;
// mangle, when non-nil, may rewrite a request or answer it itself (returning
// true) before the file server sees it.
func loggedServer(t *testing.T, dir string, mangle func(http.ResponseWriter, *http.Request) bool) (*httptest.Server, *requestLog) {
	t.Helper()
	log := &requestLog{}
	files := http.FileServer(http.Dir(dir))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		log.add(r)
		if mangle != nil && mangle(w, r) {
			return
		}
		files.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, log
}

// TestHTTPOneRequestPerRead pins the remote read path's request budget and
// error taxonomy: every outcome of a slice read — healthy, missing,
// truncated, oversize, Range-ignoring server, failing server — is decided by
// the GET that carries the data, with no HEAD before it.
func TestHTTPOneRequestPerRead(t *testing.T) {
	const X, Y = 8, 6
	sliceBytes := 2 * X * Y
	v := randomVolume(41, [4]int{X, Y, 2, 1})
	ignoreRange := func(w http.ResponseWriter, r *http.Request) bool {
		r.Header.Del("Range") // the file server answers 200 with the whole object
		return false
	}
	fail := func(w http.ResponseWriter, r *http.Request) bool {
		if filepath.Ext(r.URL.Path) == ".raw" {
			http.Error(w, "injected", http.StatusBadGateway)
			return true
		}
		return false
	}
	for _, tc := range []struct {
		name     string
		damage   func(path string) error // applied to slice 0's file
		mangle   func(http.ResponseWriter, *http.Request) bool
		region   bool  // read a sub-slice window instead of the whole slice
		wantErr  error // nil: the read succeeds
		wantReqs int
	}{
		{name: "healthy", wantReqs: 1},
		{name: "missing", damage: os.Remove, wantErr: ErrDegradedData, wantReqs: 1},
		{name: "truncated", damage: func(p string) error { return os.Truncate(p, int64(sliceBytes-5)) },
			wantErr: ErrDegradedData, wantReqs: 1},
		{name: "oversize", damage: func(p string) error { return os.Truncate(p, int64(sliceBytes+2)) },
			wantErr: ErrDegradedData, wantReqs: 1},
		{name: "range ignored, whole slice", mangle: ignoreRange, wantReqs: 1},
		{name: "range ignored, window", mangle: ignoreRange, region: true, wantErr: ErrBackendUnavailable, wantReqs: 1},
		{name: "5xx", mangle: fail, wantErr: ErrBackendUnavailable, wantReqs: DefaultHTTPAttempts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Write(dir, v, 1); err != nil {
				t.Fatal(err)
			}
			srv, log := loggedServer(t, dir, tc.mangle)
			st, err := OpenURL(context.Background(), srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			refs, err := st.NodeIndex(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				if err := tc.damage(filepath.Join(dir, nodeDirName(0), refs[0].File)); err != nil {
					t.Fatal(err)
				}
			}
			log.take() // header + index
			if tc.region {
				_, err = st.ReadSliceRegion(0, refs[0], 1, 5, 1, 4)
			} else {
				var got []uint16
				if got, err = st.ReadSlice(0, refs[0]); err == nil {
					want := v.Slice(refs[0].Z, refs[0].T)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("voxel %d: %d != %d", i, got[i], want[i])
						}
					}
				}
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == ErrBackendUnavailable && errors.Is(err, ErrDegradedData) {
				t.Errorf("transport failure classified as degraded data (skippable): %v", err)
			}
			reqs := log.take()
			if len(reqs) != tc.wantReqs {
				t.Errorf("read cost %d requests %q, want %d", len(reqs), reqs, tc.wantReqs)
			}
			for _, r := range reqs {
				if !strings.HasPrefix(r, "GET bytes=") {
					t.Errorf("request %q is not a ranged GET", r)
				}
			}
			if s := st.Stats(); s.Opens != 0 {
				t.Errorf("opens = %d, want 0 (opening an HTTP object is I/O-free)", s.Opens)
			}
		})
	}
}

// TestHTTPCachedRequestCounts: through the block cache a cold slice read
// costs ⌈size/block⌉ requests — also when the slice is a whole number of
// blocks, where probing for the end would cost one more — and a warm one
// costs none.
func TestHTTPCachedRequestCounts(t *testing.T) {
	const X, Y = 8, 8 // 128-byte slices
	v := randomVolume(42, [4]int{X, Y, 3, 1})
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	srv, log := loggedServer(t, dir, nil)
	for _, tc := range []struct {
		block, wantCold int
	}{
		{block: 128, wantCold: 1}, // exactly one block
		{block: 64, wantCold: 2},  // block-aligned
		{block: 48, wantCold: 3},  // short last block
		{block: 4096, wantCold: 1},
	} {
		st, err := OpenURL(context.Background(), srv.URL, &URLOptions{CacheBlocks: 16, CacheBlockSize: tc.block})
		if err != nil {
			t.Fatal(err)
		}
		refs, err := st.NodeIndex(0)
		if err != nil {
			t.Fatal(err)
		}
		log.take()
		for pass, want := range []int{tc.wantCold, 0} {
			got, err := st.ReadSlice(0, refs[1])
			if err != nil {
				t.Fatalf("block %d pass %d: %v", tc.block, pass, err)
			}
			for i, w := range v.Slice(refs[1].Z, refs[1].T) {
				if got[i] != w {
					t.Fatalf("block %d pass %d voxel %d: %d != %d", tc.block, pass, i, got[i], w)
				}
			}
			if reqs := log.take(); len(reqs) != want {
				t.Errorf("block %d pass %d: %d requests %q, want %d", tc.block, pass, len(reqs), reqs, want)
			}
		}
		st.Close()
	}
}

// TestCachedWrongSizeStaysDegraded: the verdict on a wrong-sized slice must
// not depend on whether its blocks are already resident.
func TestCachedWrongSizeStaysDegraded(t *testing.T) {
	v := randomVolume(43, [4]int{8, 8, 2, 1}) // 128-byte slices
	for _, size := range []int64{128 + 64, 128 - 10} {
		direct, _ := writeTemp(t, v, 1)
		refs, err := direct.NodeIndex(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(filepath.Join(direct.NodeDir(0), refs[0].File), size); err != nil {
			t.Fatal(err)
		}
		cached, err := direct.WithCache(64, 16)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := cached.ReadSlice(0, refs[0]); !errors.Is(err, ErrDegradedData) {
				t.Errorf("%d-byte slice, pass %d: err = %v, want ErrDegradedData", size, pass, err)
			}
		}
		direct.Close()
	}
}

// TestHTTPTransportOwnership: a backend built without a client owns its
// transport — sized for the read concurrency, and the only thing its Close
// touches.
func TestHTTPTransportOwnership(t *testing.T) {
	v := randomVolume(44, [4]int{8, 6, 8, 8}) // 64 slices
	dir := t.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	opened, closed := 0, 0
	files := http.FileServer(http.Dir(dir))
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond) // keep the concurrent reads overlapping
		files.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			opened++
		case http.StateClosed:
			closed++
		}
	}
	srv.Start()
	defer srv.Close()
	conns := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return opened, closed
	}

	a, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := a.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	// As many reads in flight as a run's self-sized readers keep between
	// them, each worker coming back for a second slice.
	const workers, reads = readahead.MaxRequests, 2 * readahead.MaxRequests
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < reads; i += workers {
				if _, err := a.ReadSlice(0, refs[i%len(refs)]); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	// At most one connection per concurrent reader — the transport may open
	// no more than it may keep idle, so there is no surplus dial to close —
	// and every one of them is kept: the second wave of reads dials nothing.
	// A pool smaller than the readers redials for most of the reads (55
	// connections for 64 reads at concurrency 16 with net/http's default of 2
	// idle per host; its default of 100 idle in all would cap this pool too).
	openedA, closedA := conns()
	t.Logf("%d reads at concurrency %d: %d connections opened, %d closed", reads, workers, openedA, closedA)
	if openedA > workers+16 || closedA != 0 {
		t.Errorf("%d reads at concurrency %d opened %d connections and closed %d, want at most %d opened and none closed (keep-alives must be reused)",
			reads, workers, openedA, closedA, workers+16)
	}

	b, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.ReadSlice(0, refs[0]); err != nil {
		t.Fatal(err)
	}
	openedAB, _ := conns()
	a.Close()
	// A's idle connections go away (the server sees them close) ...
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, c := conns(); c >= openedA {
			break
		}
		if time.Now().After(deadline) {
			_, c := conns()
			t.Fatalf("closing backend A closed %d of its %d connections", c, openedA)
		}
		time.Sleep(time.Millisecond)
	}
	// ... and B's stays: its next read dials nothing.
	if _, err := b.ReadSlice(0, refs[1]); err != nil {
		t.Fatal(err)
	}
	if o, c := conns(); o != openedAB || c != openedA {
		t.Errorf("after closing A: %d connections opened (want %d), %d closed (want %d): B lost its keep-alive",
			o, openedAB, c, openedA)
	}

	// A caller-supplied client is never closed by the backend.
	client := &http.Client{Transport: &http.Transport{}}
	c1, err := OpenURL(context.Background(), srv.URL, &URLOptions{HTTPClient: client})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := conns()
	c1.Close()
	resp, err := client.Get(srv.URL + "/dataset.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after, _ := conns(); after != before {
		t.Errorf("closing a backend dropped its caller's idle connection (%d new dials)", after-before)
	}
}

// TestRegionReadIsOneRead: a sub-slice window costs one backend read on
// every backend, decodes to exactly the crop of the whole slice, and still
// reports a truncated slice as degraded.
func TestRegionReadIsOneRead(t *testing.T) {
	const X, Y = 10, 8
	v := randomVolume(45, [4]int{X, Y, 2, 2})
	dir := t.TempDir()
	if _, err := Write(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	local, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := WriteMemDataset(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := OpenBackend(context.Background(), mb)
	if err != nil {
		t.Fatal(err)
	}
	srv, log := loggedServer(t, dir, nil)
	remote, err := OpenURL(context.Background(), srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	windows := [][4]int{{0, X, 0, Y}, {2, 7, 1, 6}, {0, X, 3, 4}, {9, 10, 0, Y}, {4, 5, 7, 8}}
	for name, st := range map[string]*Store{"local": local, "mem": mem, "http": remote} {
		defer st.Close()
		for node := 0; node < 2; node++ {
			refs, err := st.NodeIndex(node)
			if err != nil {
				t.Fatal(err)
			}
			for _, ref := range refs {
				whole := v.Slice(ref.Z, ref.T)
				for _, w := range windows {
					log.take()
					before := st.Stats().Reads
					got, err := st.ReadSliceRegion(node, ref, w[0], w[1], w[2], w[3])
					if err != nil {
						t.Fatalf("%s: window %v: %v", name, w, err)
					}
					if d := st.Stats().Reads - before; d != 1 {
						t.Errorf("%s: window %v cost %d backend reads, want 1", name, w, d)
					}
					if reqs := log.take(); name == "http" && len(reqs) != 1 {
						t.Errorf("http: window %v cost %d requests %q, want 1", w, len(reqs), reqs)
					}
					var want []uint16 // the window cropped out of the whole slice
					for y := w[2]; y < w[3]; y++ {
						want = append(want, whole[y*X+w[0]:y*X+w[1]]...)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: window %v value %d: %d != %d", name, w, i, got[i], want[i])
						}
					}
				}
			}
		}
	}

	// Cut slice 0 of node 0 inside row 5: windows above the cut still read,
	// windows reaching it are degraded — locally and remotely.
	refs, _ := local.NodeIndex(0)
	if err := os.Truncate(filepath.Join(local.NodeDir(0), refs[0].File), int64(2*(5*X+3))); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"local": local, "http": remote} {
		if _, err := st.ReadSliceRegion(0, refs[0], 2, 7, 0, 5); err != nil {
			t.Errorf("%s: window above the cut: %v", name, err)
		}
		if _, err := st.ReadSliceRegion(0, refs[0], 2, 7, 3, 7); !errors.Is(err, ErrDegradedData) {
			t.Errorf("%s: window across the cut: err = %v, want ErrDegradedData", name, err)
		}
	}
}

// FuzzParseContentRange: the Content-Range parser sees bytes a remote server
// chose. It must never panic, and a value it accepts must be a range the
// read path can trust: a first byte inside an object of known length.
func FuzzParseContentRange(f *testing.F) {
	for _, s := range []string{
		"bytes 0-95/96", "bytes 40-95/96", "bytes 0-0/1", "bytes */96", "bytes 0-95/*",
		"bytes 96-95/96", "bytes 0-96/96", "bytes -1-5/96", "items 0-5/96", "bytes 0-5", "",
		"bytes 0-9223372036854775807/9223372036854775807", "bytes 99999999999999999999-1/2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		start, total, err := parseContentRange(h)
		if err != nil {
			if start != 0 || total != 0 {
				t.Errorf("parseContentRange(%q) = %d, %d with error %v", h, start, total, err)
			}
			return
		}
		if start < 0 || start >= total {
			t.Errorf("parseContentRange(%q) accepted start %d of total %d", h, start, total)
		}
	})
}

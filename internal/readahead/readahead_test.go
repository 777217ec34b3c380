package readahead

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderPreserved checks that results arrive in index order for every
// depth, even when fetch completion order is scrambled.
func TestOrderPreserved(t *testing.T) {
	const n = 64
	for _, depth := range []int{0, 1, 2, 3, 8, n, 2 * n} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			fetch := func(i int) (int, error) {
				// Earlier indices sleep longer so out-of-order completion is
				// the common case, not a lucky schedule.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond / 4)
				return i * i, nil
			}
			r := New(fetch, n, depth)
			defer r.Close()
			for i := 0; i < n; i++ {
				v, err, ok := r.Next()
				if !ok || err != nil {
					t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
				}
				if v != i*i {
					t.Fatalf("Next %d = %d, want %d (out of order)", i, v, i*i)
				}
			}
			if _, _, ok := r.Next(); ok {
				t.Fatal("Next returned ok after the stream ended")
			}
		})
	}
}

// TestSynchronousInline checks the depth ≤ 0 contract: every fetch runs
// inline on the caller's goroutine in strict sequence, with no prefetching —
// the bit-for-bit reproduction of the pre-readahead reader loop.
func TestSynchronousInline(t *testing.T) {
	var calls []int
	fetch := func(i int) (int, error) {
		calls = append(calls, i) // unsynchronized: must be single-goroutine
		return i, nil
	}
	r := New(fetch, 5, 0)
	defer r.Close()
	for i := 0; i < 3; i++ {
		if _, err, ok := r.Next(); err != nil || !ok {
			t.Fatal(err)
		}
		// Nothing may be fetched beyond what was consumed.
		if len(calls) != i+1 {
			t.Fatalf("after %d Next calls, %d fetches ran", i+1, len(calls))
		}
	}
}

// TestBound checks that exactly depth fetches are outstanding when the
// consumer stops consuming: depth is the number of requests in flight, not
// a count of credits queued behind a smaller pool (depth 16 used to reach
// 4), and never one more.
func TestBound(t *testing.T) {
	for _, depth := range []int{1, 3, 4, 16, 64} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			const n = 200
			var started atomic.Int64
			release := make(chan struct{})
			fetch := func(i int) (int, error) {
				started.Add(1)
				<-release
				return i, nil
			}
			r := New(fetch, n, depth)
			defer r.Close()
			// Without any Next call, the dispatcher can start at most depth
			// fetches, and all of them block at once.
			deadline := time.Now().Add(2 * time.Second)
			for started.Load() < int64(depth) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond) // give an unbounded bug time to show
			if got := started.Load(); got != int64(depth) {
				t.Fatalf("%d fetches in flight with no consumer, want %d", got, depth)
			}
			if d, peak, limit := r.Depth(); d != depth || peak != depth || limit != depth {
				t.Fatalf("Depth() = %d, %d, %d, want a fixed %d", d, peak, limit, depth)
			}
			close(release)
		})
	}
}

// TestErrorPropagation checks a fetch error surfaces at the failing index.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, depth := range []int{0, 4} {
		fetch := func(i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		}
		r := New(fetch, 10, depth)
		for i := 0; i < 6; i++ {
			_, err, ok := r.Next()
			if !ok {
				t.Fatalf("depth %d: stream ended at %d", depth, i)
			}
			if (err != nil) != (i == 5) || (i == 5 && !errors.Is(err, boom)) {
				t.Fatalf("depth %d index %d: err = %v", depth, i, err)
			}
		}
		r.Close()
	}
}

// TestCloseMidStream aborts consumption partway and checks every goroutine
// the reader started exits — the readahead half of the pipeline-cancellation
// guarantee. Run with -race.
func TestCloseMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		fetch := func(i int) (int, error) {
			time.Sleep(time.Duration(i%3) * time.Millisecond / 2)
			return i, nil
		}
		r := New(fetch, 50, 4)
		for i := 0; i < trial%7; i++ {
			r.Next()
		}
		r.Close()
		r.Close() // idempotent
		if _, _, ok := r.Next(); ok {
			t.Fatal("Next succeeded after Close")
		}
	}
	// Goroutine count returns to the baseline once all pools exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after Close, started with %d", now, before)
	}
}

// TestGateResizeGrow checks that raising a reader's depth mid-stream — the
// doubling step of the self-sizing rule — lets the dispatcher start more
// outstanding fetches without rebuilding the reader.
func TestGateResizeGrow(t *testing.T) {
	const n = 100
	var started atomic.Int64
	release := make(chan struct{})
	fetch := func(i int) (int, error) {
		started.Add(1)
		<-release
		return i, nil
	}
	r := selfSized(fetch, n, 16, false)
	defer r.Close()
	defer close(release)

	waitFor := func(want int64) {
		deadline := time.Now().Add(2 * time.Second)
		for started.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // give an over-dispatch bug time to show
		if got := started.Load(); got != want {
			t.Fatalf("%d fetches outstanding, want %d (depth=%d)", got, want, r.gate.Limit())
		}
	}
	waitFor(Floor)
	if d := r.gate.Resize(2 * Floor); d != 2*Floor {
		t.Fatalf("Resize(%d) = %d", 2*Floor, d)
	}
	waitFor(2 * Floor)
}

// TestGateResizeShrink checks that lowering the depth stops new dispatches
// until the surplus outstanding fetches are consumed.
func TestGateResizeShrink(t *testing.T) {
	const n = 50
	var started atomic.Int64
	fetch := func(i int) (int, error) {
		started.Add(1)
		return i, nil
	}
	r := selfSized(fetch, n, 2*Floor, true)
	defer r.Close()

	deadline := time.Now().Add(2 * time.Second)
	for started.Load() < 2*Floor && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.gate.Resize(Floor)
	// Consuming one result returns one credit; with 7 still outstanding and
	// the limit at 4, no new fetch may start.
	base := started.Load()
	if _, err, ok := r.Next(); err != nil || !ok {
		t.Fatalf("Next: err=%v ok=%v", err, ok)
	}
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != base {
		t.Fatalf("dispatcher started %d fetches while over the shrunken limit", got-base)
	}
	// Draining below the new limit resumes dispatch, and order still holds.
	for i := 1; i < n; i++ {
		v, err, ok := r.Next()
		if err != nil || !ok || v != i {
			t.Fatalf("Next %d = (%d, %v, %v)", i, v, err, ok)
		}
	}
}

// TestGateClamp checks a reader reports its gate's clamped limit and upper
// bound as the gate is moved past both ends of its range.
func TestGateClamp(t *testing.T) {
	r := selfSized(func(i int) (int, error) { return i, nil }, 3, 8, false)
	defer r.Close()
	for i, resize := range []int{0, 100, -3} {
		if i > 0 {
			r.gate.Resize(resize)
		}
		want := min(max(resize, Floor), 8)
		if _, err, ok := r.Next(); !ok || err != nil {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
		if d, _, limit := r.Depth(); d != want || limit != 8 {
			t.Fatalf("after Resize(%d): Depth() = %d, limit %d, want %d, limit 8", resize, d, limit, want)
		}
	}
}

// BenchmarkNextSync and BenchmarkNextAsync are the readahead
// microbenchmarks run by CI's io-bench smoke step: a fetch with a small
// fixed latency, consumed with and without prefetching.
func benchNext(depth int) func(*testing.B) {
	return func(b *testing.B) {
		fetch := func(i int) (int, error) {
			time.Sleep(20 * time.Microsecond) // stand-in for one positioned read
			return i, nil
		}
		b.ResetTimer()
		for iter := 0; iter < b.N; iter++ {
			r := New(fetch, 32, depth)
			for {
				_, err, ok := r.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			r.Close()
		}
	}
}

func BenchmarkNextSync(b *testing.B)  { benchNext(0)(b) }
func BenchmarkNextAsync(b *testing.B) { benchNext(4)(b) }

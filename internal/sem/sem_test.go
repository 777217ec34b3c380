package sem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// state reads the credits held and the acquirers queued.
func state(s *Sem) (held, waiting int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held, s.waiters.Len()
}

// parked spins until n acquirers are queued on s: synchronisation with the
// goroutines a test started, never an assertion.
func parked(t *testing.T, s *Sem, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, w := state(s); w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("acquirers never parked: want %d queued", n)
		}
		runtime.Gosched()
	}
}

// later starts Acquire(n, stop) on a goroutine and returns where its result
// arrives.
func later(s *Sem, n int, stop <-chan struct{}) <-chan bool {
	got := make(chan bool, 1)
	go func() { got <- s.Acquire(n, stop) }()
	return got
}

// still fails the test when an acquirer that must be blocked has returned.
// Release and Resize admit waiters before they return, so a waiter that is
// still queued afterwards was not admitted: no sleep is needed to know.
func still(t *testing.T, s *Sem, queued int, got <-chan bool, when string) {
	t.Helper()
	if _, w := state(s); w != queued {
		t.Fatalf("%s: %d acquirers queued, want %d", when, w, queued)
	}
	select {
	case ok := <-got:
		t.Fatalf("%s: Acquire returned %v, want it blocked", when, ok)
	default:
	}
}

func admitted(t *testing.T, got <-chan bool, when string) {
	t.Helper()
	select {
	case ok := <-got:
		if !ok {
			t.Fatalf("%s: Acquire returned false with stop open", when)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: acquirer still blocked", when)
	}
}

func atRest(t *testing.T, s *Sem) {
	t.Helper()
	if held, w := state(s); held != 0 || w != 0 {
		t.Fatalf("semaphore not at rest: %d credits held, %d acquirers queued", held, w)
	}
}

// TestWeighted: credits are counted by weight, a request that does not fit
// waits for exactly the credits it lacks, and a later small request queues
// behind an earlier large one instead of starving it.
func TestWeighted(t *testing.T) {
	s := New(10, 1, 10)
	if !s.Acquire(4, nil) || !s.Acquire(4, nil) {
		t.Fatal("8 of 10 credits blocked")
	}
	big := later(s, 5, nil)
	parked(t, s, 1)
	small := later(s, 1, nil) // would fit, but the 5 came first
	parked(t, s, 2)
	s.Release(2) // 6 held: 5 more still do not fit
	still(t, s, 2, big, "6 held, 5 wanted")
	s.Release(1) // 5 held: the 5 fit, then nothing is left for the 1
	admitted(t, big, "5 held, 5 wanted")
	still(t, s, 1, small, "10 held, 1 wanted")
	s.Release(5)
	admitted(t, small, "5 held, 1 wanted")
	if held, _ := state(s); held != 6 {
		t.Fatalf("%d credits held, want 6", held)
	}
	s.Release(6)
	s.Release(0)  // no-op
	s.Release(-3) // no-op
	if !s.Acquire(0, nil) || !s.Acquire(-1, nil) {
		t.Fatal("a request for no credits must be granted")
	}
	atRest(t, s)
}

// TestShrinkBelowInFlight pins the shrink semantics when the cut goes below
// what is already held: nothing is revoked, new admissions stop entirely, and
// they resume only once the surplus has drained under the new limit. (A
// self-sized reader does this to its own gate when its rule steps the depth
// down with every credit out.) The 8 credits are held as 8 unit requests (one
// per window in flight, as a reader's dispatcher takes them) and as 4
// requests of 2.
func TestShrinkBelowInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    int
	}{{"unit", 1}, {"weight-2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(8, 1, 16)
			for i := 0; i < 8/tc.w; i++ {
				if !s.Acquire(tc.w, nil) {
					t.Fatal("acquire within the limit blocked")
				}
			}
			if d := s.Resize(2); d != 2 {
				t.Fatalf("Resize(2) = %d", d)
			}
			got := later(s, 1, nil)
			parked(t, s, 1)
			still(t, s, 1, got, "8 held, limit 2")
			s.Release(6) // drains to exactly the new limit: still no free credit
			still(t, s, 1, got, "2 held, limit 2")
			s.Release(1)
			admitted(t, got, "1 held, limit 2")
			s.Release(2)
			atRest(t, s)
		})
	}
}

// TestGrowWakesAllBlocked parks acquirers on a full semaphore and grows it:
// every newly minted credit goes to a waiter, not just the first. The
// one-waiter case is a reader's dispatcher parked on its full gate when the
// reader raises the limit.
func TestGrowWakesAllBlocked(t *testing.T) {
	t.Run("one-waiter", func(t *testing.T) {
		s := New(2, 1, 4)
		if !s.Acquire(1, nil) || !s.Acquire(1, nil) {
			t.Fatal("two acquires within the limit blocked")
		}
		got := later(s, 1, nil)
		parked(t, s, 1)
		still(t, s, 1, got, "2 held, limit 2")
		s.Resize(3)
		admitted(t, got, "2 held, limit 3")
		s.Release(3)
		atRest(t, s)
	})
	t.Run("five-waiters", func(t *testing.T) {
		s := New(1, 1, 16)
		if !s.Acquire(1, nil) {
			t.Fatal("first acquire blocked")
		}
		const waiters = 5
		var got []<-chan bool
		for i := 0; i < waiters; i++ {
			got = append(got, later(s, 1, nil))
		}
		parked(t, s, waiters)
		s.Resize(waiters) // one held: room for all but one waiter
		if _, w := state(s); w != 1 {
			t.Fatalf("%d acquirers still queued after the grow, want 1", w)
		}
		s.Resize(1 + waiters)
		for _, g := range got {
			admitted(t, g, "waiter after grow")
		}
		s.Release(1 + waiters)
		atRest(t, s)
	})
}

// TestOversizeWhenEmpty: a request larger than the limit is admitted exactly
// when nothing is held, holds everyone else out while it is, and waits its
// turn like any other request when something is.
func TestOversizeWhenEmpty(t *testing.T) {
	s := New(4, 1, 4)
	if !s.Acquire(10, nil) {
		t.Fatal("an oversize request on an empty semaphore must pass alone")
	}
	one := later(s, 1, nil)
	parked(t, s, 1)
	still(t, s, 1, one, "oversize buffer held")
	s.Release(10)
	admitted(t, one, "oversize buffer released")
	huge := later(s, 10, nil)
	parked(t, s, 1)
	still(t, s, 1, huge, "1 held, oversize wanted")
	s.Release(1)
	admitted(t, huge, "nothing held, oversize wanted")
	s.Release(10)
	atRest(t, s)
}

// TestStopWhileBlocked: closing stop returns false to a blocked acquirer, it
// holds nothing afterwards, and the request that queued behind it is served.
func TestStopWhileBlocked(t *testing.T) {
	s := New(4, 1, 4)
	if !s.Acquire(3, nil) {
		t.Fatal("acquire within the limit blocked")
	}
	stop := make(chan struct{})
	big := later(s, 4, stop)
	parked(t, s, 1)
	small := later(s, 1, nil)
	parked(t, s, 2)
	close(stop)
	select {
	case ok := <-big:
		if ok {
			t.Fatal("Acquire returned true after stop closed on a full semaphore")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing stop did not unblock the acquirer")
	}
	admitted(t, small, "the request behind the stopped one")
	if held, _ := state(s); held != 4 {
		t.Fatalf("%d credits held, want 4: the stopped acquirer must hold none", held)
	}
	// A request that fits is admitted without looking at stop.
	s.Release(4)
	if !s.Acquire(1, stop) {
		t.Fatal("a request that fits must be admitted even with stop closed")
	}
	s.Release(1)
	atRest(t, s)
}

// TestNilReceiver: a nil semaphore admits everything and reports no limit.
func TestNilReceiver(t *testing.T) {
	var s *Sem
	if !s.Acquire(1<<40, nil) {
		t.Fatal("nil semaphore must admit everything")
	}
	s.Release(1 << 40)
	if s.Limit() != 0 || s.Resize(5) != 0 {
		t.Fatal("nil semaphore must report limit 0")
	}
	if lo, hi := s.Bounds(); lo != 0 || hi != 0 {
		t.Fatalf("nil Bounds() = %d, %d", lo, hi)
	}
}

// TestClamp: construction and resize both clamp into [lo, hi], and the bounds
// are normalized to 1 <= lo <= hi.
func TestClamp(t *testing.T) {
	s := New(0, 2, 8)
	if d := s.Limit(); d != 2 {
		t.Fatalf("New(0,2,8).Limit() = %d, want 2", d)
	}
	if d := s.Resize(100); d != 8 {
		t.Fatalf("Resize(100) = %d, want 8", d)
	}
	if d := s.Resize(-3); d != 2 {
		t.Fatalf("Resize(-3) = %d, want 2", d)
	}
	if lo, hi := s.Bounds(); lo != 2 || hi != 8 {
		t.Fatalf("Bounds() = %d, %d", lo, hi)
	}
	if lo, hi := New(5, -1, -7).Bounds(); lo != 1 || hi != 1 {
		t.Fatalf("New(5,-1,-7).Bounds() = %d, %d, want 1, 1", lo, hi)
	}
}

// weightings are the request sizes the traffic tests give their workers: one
// credit per request, as the texture filters take them, and a mix of 1 to 3.
var weightings = []struct {
	name   string
	weight func(worker int) int
}{
	{"unit", func(int) int { return 1 }},
	{"weighted", func(w int) int { return 1 + w%3 }},
}

// TestResizeDuringDrain closes stop in the middle of a resize storm: every
// blocked acquirer must abort with false, none may stay queued, and every
// credit must come home. (The workers also poll stop after each release: a
// request that fits is admitted without checking stop, so a worker that keeps
// winning credits would otherwise never observe the drain.)
func TestResizeDuringDrain(t *testing.T) {
	for _, tc := range weightings {
		t.Run(tc.name, func(t *testing.T) {
			s := New(2, 1, 8)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				n := tc.weight(i)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s.Acquire(n, stop) {
						runtime.Gosched()
						s.Release(n)
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			resizerDone := make(chan struct{})
			go func() {
				defer close(resizerDone)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Resize(1 + i%8)
					runtime.Gosched()
				}
			}()
			for i := 0; i < 2000; i++ {
				runtime.Gosched()
			}
			close(stop)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("an acquirer stayed wedged after stop closed mid-resize")
			}
			<-resizerDone
			atRest(t, s)
		})
	}
}

// TestConcurrentResizeStress whipsaws the limit across its whole range under
// 2x oversubscribed traffic and checks the invariant no interleaving may
// break: the credits held at once never exceed the upper bound, and the
// semaphore is at rest when the traffic stops.
func TestConcurrentResizeStress(t *testing.T) {
	const hi = 8
	for _, tc := range weightings {
		t.Run(tc.name, func(t *testing.T) {
			s := New(hi, 1, hi)
			stop := make(chan struct{})
			var cur, peak atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 2*hi; w++ {
				n := int64(tc.weight(w))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s.Acquire(int(n), stop) {
						c := cur.Add(n)
						for {
							p := peak.Load()
							if c <= p || peak.CompareAndSwap(p, c) {
								break
							}
						}
						cur.Add(-n)
						s.Release(int(n))
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			for i := 0; i < 500; i++ {
				s.Resize(1 + i%hi)
			}
			close(stop)
			wg.Wait()
			if p := peak.Load(); p > hi {
				t.Fatalf("observed %d credits held at once, upper bound is %d", p, hi)
			}
			atRest(t, s)
		})
	}
}

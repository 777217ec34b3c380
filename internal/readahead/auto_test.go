package readahead

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sim drives a self-sized reader on a simulated clock: every fetch takes
// exactly the time the test says, however many run at once (a backend that
// overlaps perfectly), and the consumer spends exactly the time the test says
// on each window. The clock moves only in advance, between events: a fetch
// that comes due ends at its own instant, and Next waits inside its call as
// it would on a real clock. The simulation counts the clock reads it expects
// (one as a fetch starts, one as it ends, one or two per Next) and moves on
// only when all have happened, so the durations the reader brackets are exact
// and the depth it walks is the same on every run. Waits here synchronise
// with the reader's goroutines; none is an assertion.
type sim struct {
	t         *testing.T
	n         int
	fetchTime func(i int) time.Duration

	mu       sync.Mutex
	now      time.Time
	reads    int // clock reads so far
	started  int // fetches begun; each has read the clock once
	ended    int // fetches released; each reads the clock once more
	nexts    int // clock reads Next has made or is about to make
	waiting  int // the window a blocked Next waits for, or -1
	begun    []time.Time
	released []bool
	release  []chan struct{}
}

func newSim(t *testing.T, n int, fetchTime func(int) time.Duration) *sim {
	s := &sim{t: t, n: n, fetchTime: fetchTime, now: time.Unix(1, 0), waiting: -1,
		begun: make([]time.Time, n), released: make([]bool, n), release: make([]chan struct{}, n)}
	for i := range s.release {
		s.release[i] = make(chan struct{})
	}
	return s
}

func (s *sim) clock() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	return s.now
}

func (s *sim) fetch(i int) (int, error) {
	s.mu.Lock()
	s.begun[i] = s.now
	s.started++
	s.mu.Unlock()
	<-s.release[i]
	return i, nil
}

// quiet spins until every expected clock read has happened and cond (under
// the lock, may be nil) holds.
func (s *sim) quiet(what string, cond func() bool) {
	s.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		ok := s.reads == s.started+s.ended+s.nexts && (cond == nil || cond())
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("simulation stuck waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// advance moves the clock forward to the given time, ending each started
// fetch that comes due on the way at the instant it is due (earliest first,
// lowest index on a tie).
func (s *sim) advance(to time.Time) {
	for {
		s.mu.Lock()
		next, due := -1, to
		for i := 0; i < s.n; i++ {
			if s.begun[i].IsZero() || s.released[i] {
				continue
			}
			if d := s.begun[i].Add(s.fetchTime(i)); d.Before(due) || (next < 0 && d.Equal(due)) {
				next, due = i, d
			}
		}
		if next < 0 {
			if to.After(s.now) {
				s.now = to
			}
			s.mu.Unlock()
			return
		}
		if due.After(s.now) {
			s.now = due
		}
		s.released[next] = true
		s.ended++
		if next == s.waiting {
			s.waiting = -1
			s.nexts++ // the blocked Next returns and reads its exit time
		}
		s.mu.Unlock()
		close(s.release[next])
		s.quiet("a fetch to end", nil)
	}
}

// run consumes every window of a self-sized reader bounded by limit and
// opened with the given latency seed, and returns the depth after each window,
// the fetches outstanding before the first Next, and the most ever outstanding.
func (s *sim) run(limit int, seed time.Duration, consume func(i int) time.Duration) (depths []int, opened, outstanding int) {
	r := newAuto(s.fetch, s.n, limit, seed, s.clock)
	defer r.Close()
	settle := func(consumed int) {
		d, _, _ := r.Depth()
		s.quiet("the dispatcher to fill the gate", func() bool { return s.started >= min(s.n, consumed+d) })
		s.mu.Lock()
		outstanding = max(outstanding, s.started-consumed)
		s.mu.Unlock()
	}
	settle(0)
	opened = outstanding
	for w := 0; w < s.n; w++ {
		s.mu.Lock()
		if w > 0 {
			s.nexts++ // Next reads its entry time: the end of the consumer's time on w-1
		}
		due := s.begun[w].Add(s.fetchTime(w))
		ready := s.released[w]
		if ready {
			s.nexts++ // and its exit time at once
		} else {
			s.waiting = w
		}
		s.mu.Unlock()
		var v int
		var err error
		var ok bool
		done := make(chan struct{})
		go func() {
			v, err, ok = r.Next()
			close(done)
		}()
		if !ready {
			s.quiet("Next to block", nil)
			s.advance(due) // time passes inside Next until window w is there
		}
		<-done
		if !ok || err != nil || v != w {
			s.t.Fatalf("Next %d = (%d, %v, %v)", w, v, err, ok)
		}
		d, peak, lim := r.Depth()
		if d < Floor || d > limit || peak < d || peak > limit || lim != limit {
			s.t.Fatalf("window %d: Depth() = %d, %d, %d outside [%d, %d]", w, d, peak, lim, Floor, limit)
		}
		depths = append(depths, d)
		settle(w + 1)
		s.mu.Lock()
		to := s.now.Add(consume(w))
		s.mu.Unlock()
		s.advance(to)
	}
	return depths, opened, outstanding
}

func constant(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

// TestAutoSlowBackend: a 30 ms fetch against a 50 µs consumer needs hundreds
// of windows in flight. A reader that already saw the backend take 30 ms (its
// index read) opens at its cap, with exactly that many requests out before the
// first Next returns; one that did not starts at the floor and is at the cap
// no later than doubling from the floor would have put it there, two windows
// after its two means exist. Neither ever steps back.
func TestAutoSlowBackend(t *testing.T) {
	for _, limit := range []int{16, 64, 256} {
		t.Run(fmt.Sprintf("cap=%d", limit), func(t *testing.T) {
			for _, seed := range []time.Duration{0, 30 * time.Millisecond} {
				s := newSim(t, 2*limit, constant(30*time.Millisecond))
				depths, opened, outstanding := s.run(limit, seed, constant(50*time.Microsecond))
				by, wantOpen := bits.Len(uint((limit-1)/Floor))+2, Floor // ⌈log₂(limit/Floor)⌉ + 2
				if seed > 0 {
					by, wantOpen = 0, limit
				}
				if opened != wantOpen {
					t.Errorf("seed %v: %d requests outstanding before the first Next, want %d", seed, opened, wantOpen)
				}
				for w, d := range depths {
					if w > 0 && d < depths[w-1] {
						t.Fatalf("seed %v: window %d: depth fell %d -> %d", seed, w, depths[w-1], d)
					}
					if w+1 >= by && d != limit {
						t.Fatalf("seed %v: window %d: depth %d, want the cap %d once %d windows are consumed (%v)", seed, w, d, limit, by, depths[:w+1])
					}
				}
				if outstanding != limit {
					t.Errorf("seed %v: %d fetches outstanding at most, want the cap %d: depth must be requests in flight", seed, outstanding, limit)
				}
			}
		})
	}
}

// TestAutoLocalBackend: a fetch that takes about as long as its window takes
// to consume (a page-cache read; up to 7x is still "about") never leaves the
// floor, whether or not the index read seeded it.
func TestAutoLocalBackend(t *testing.T) {
	for _, fetch := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond} {
		for _, seed := range []time.Duration{0, fetch} {
			s := newSim(t, 200, constant(fetch))
			depths, opened, outstanding := s.run(16, seed, constant(50*time.Microsecond))
			for w, d := range depths {
				if d != Floor {
					t.Fatalf("fetch %v: window %d: depth %d, want the floor %d throughout", fetch, w, d, Floor)
				}
			}
			if opened != Floor || outstanding != Floor {
				t.Errorf("fetch %v: %d fetches outstanding at first, %d at most, want %d", fetch, opened, outstanding, Floor)
			}
		}
	}
}

// TestAutoBackPressure: when the consumer starts to stall on its sends (50 ms
// per window from window 40 on — a full downstream queue), the depth that had
// reached the cap walks back to the floor one step per window, and is back at
// the cap once the stall is over.
func TestAutoBackPressure(t *testing.T) {
	const limit = 16
	s := newSim(t, 200, constant(30*time.Millisecond))
	depths, _, _ := s.run(limit, 0, func(w int) time.Duration {
		if w >= 40 && w < 100 {
			return 50 * time.Millisecond
		}
		return 50 * time.Microsecond
	})
	if depths[39] != limit {
		t.Fatalf("depth %d before the stall, want the cap %d", depths[39], limit)
	}
	for w := 41; w < 100; w++ {
		if depths[w] > depths[w-1] || depths[w] < depths[w-1]-1 {
			t.Fatalf("window %d: depth went %d -> %d under back-pressure, want steps of -1", w, depths[w-1], depths[w])
		}
	}
	if depths[40+2*limit] != Floor || depths[99] != Floor {
		t.Fatalf("depth %d after %d stalled windows, %d at the end of the stall, want the floor %d (%v)",
			depths[40+2*limit], 2*limit, depths[99], Floor, depths[40:100])
	}
	if depths[199] != limit {
		t.Fatalf("depth %d at the end, want the cap %d again after the stall (%v)", depths[199], limit, depths[100:])
	}
}

// TestAutoByteBudget: the cap a copy is given is its share of the byte budget
// whatever the window size, clamped by its share of the requests the backend
// keeps alive (which binds under 64 KiB) and never under the floor; and a
// reader at that cap keeps the raw bytes of its outstanding windows inside the
// budget.
func TestAutoByteBudget(t *testing.T) {
	for _, c := range []struct{ copies, windowBytes, want int }{
		{1, 8 << 10, 256}, {1, 64 << 10, 256}, {1, 128 << 10, 128}, {1, 2 << 20, 8},
		{4, 8 << 10, 64}, {4, 64 << 10, 64}, {4, 128 << 10, 32}, {4, 2 << 20, Floor},
		{8, 8 << 10, 32}, {8, 64 << 10, 32}, {8, 128 << 10, 16}, {8, 2 << 20, Floor},
		{3, 8 << 10, 85}, {0, 0, 256},
		// The floor outranks both budgets: no copy reads shallower than the
		// fixed default it replaces.
		{128, 8 << 10, Floor},
	} {
		if got := AutoCap(c.copies, c.windowBytes); got != c.want {
			t.Errorf("AutoCap(%d copies, %d bytes) = %d, want %d", c.copies, c.windowBytes, got, c.want)
		}
	}
	for _, windowBytes := range []int{8 << 10, 128 << 10, 2 << 20} {
		limit := AutoCap(1, windowBytes)
		s := newSim(t, 2*limit, constant(30*time.Millisecond))
		_, _, outstanding := s.run(limit, 0, constant(50*time.Microsecond))
		if outstanding != limit || outstanding > MaxRequests || outstanding*windowBytes > BudgetBytes {
			t.Errorf("%d-byte windows: %d outstanding (%d bytes) under cap %d, budget %d requests / %d bytes",
				windowBytes, outstanding, outstanding*windowBytes, limit, MaxRequests, BudgetBytes)
		}
	}
}

// TestCloseDeep: closing with 256 fetches in flight waits for them and leaves
// no goroutine behind.
func TestCloseDeep(t *testing.T) {
	before := runtime.NumGoroutine()
	const depth = MaxRequests
	var mu sync.Mutex
	started := 0
	release := make(chan struct{})
	r := New(func(i int) (int, error) {
		mu.Lock()
		started++
		mu.Unlock()
		<-release
		return i, nil
	}, 1000, depth)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := started
		mu.Unlock()
		if n == depth {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fetches in flight, want %d", n, depth)
		}
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with fetches still in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-closed
	mu.Lock()
	n := started
	mu.Unlock()
	if n != depth {
		t.Fatalf("%d fetches started, want exactly %d", n, depth)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after Close, started with %d", now, before)
	}
}

// Package sem is the one live-resizable weighted semaphore under every
// bounded resource of a run: a reader's windows in flight (one credit per
// request) and a filter copy's input queue (one credit per payload byte).
// Only the owner of a Sem moves its limit mid-run — a self-sized reader, on
// its own gate; holders only block.
package sem

import (
	"container/list"
	"sync"
)

// Sem is a weighted credit counter with a limit that can be resized inside
// [lo, hi] while credits are held. Lowering the limit below what is held
// revokes nothing: new admissions stop until the surplus is released. Waiters
// are served first come, first served, so a large request is not starved by a
// stream of small ones. A request larger than the limit is admitted when
// nothing is held, so an oversize buffer passes alone instead of wedging its
// producer forever.
//
// All methods are safe for concurrent use and for a nil receiver: a nil *Sem
// admits everything at no cost, so callers thread the pointer unconditionally.
type Sem struct {
	mu      sync.Mutex
	limit   int
	lo, hi  int
	held    int
	waiters list.List // of *waiter, oldest first
}

type waiter struct {
	n     int
	ready chan struct{} // closed once the credits are granted
}

// New returns a semaphore with the given starting limit, clamped into
// [lo, hi]. Bounds are normalized so that 1 <= lo <= hi: a zero-credit limit
// would wedge its holders forever.
func New(limit, lo, hi int) *Sem {
	lo = max(lo, 1)
	hi = max(hi, lo)
	return &Sem{limit: min(max(limit, lo), hi), lo: lo, hi: hi}
}

// Limit returns the current credit limit (0 for a nil receiver, which has
// none).
func (s *Sem) Limit() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limit
}

// Bounds returns the [lo, hi] resize range.
func (s *Sem) Bounds() (lo, hi int) {
	if s == nil {
		return 0, 0
	}
	return s.lo, s.hi
}

// Resize sets the limit, clamped into the bounds, and returns the applied
// value. Raising it admits blocked acquirers at once; lowering it takes effect
// as held credits are released.
func (s *Sem) Resize(limit int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = min(max(limit, s.lo), s.hi)
	s.grantLocked()
	return s.limit
}

// fits reports whether n more credits may be held now.
func (s *Sem) fits(n int) bool { return s.held == 0 || s.held+n <= s.limit }

// grantLocked admits waiters from the front of the queue while they fit.
func (s *Sem) grantLocked() {
	for e := s.waiters.Front(); e != nil; e = s.waiters.Front() {
		w := e.Value.(*waiter)
		if !s.fits(w.n) {
			return
		}
		s.held += w.n
		s.waiters.Remove(e)
		close(w.ready)
	}
}

// Acquire takes n credits, blocking while they do not fit under the limit or
// earlier acquirers are still waiting. It returns false, holding nothing, once
// stop is closed while it waits; a request that fits at once is admitted
// without looking at stop. Zero or fewer credits are always granted.
func (s *Sem) Acquire(n int, stop <-chan struct{}) bool { return s.AcquireWith(n, stop, nil) }

// AcquireWith is Acquire with its one wait done by wait, which blocks until
// ready or stop is closed and reports whether ready was: a caller that
// schedules its goroutines itself (the filter runtime's virtual clock) parks
// them there. A nil wait is a plain select.
func (s *Sem) AcquireWith(n int, stop <-chan struct{}, wait func(ready, stop <-chan struct{}) bool) bool {
	if s == nil || n <= 0 {
		return true
	}
	s.mu.Lock()
	if s.waiters.Len() == 0 && s.fits(n) {
		s.held += n
		s.mu.Unlock()
		return true
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	e := s.waiters.PushBack(w)
	s.mu.Unlock()
	if wait == nil {
		select {
		case <-w.ready:
			return true
		case <-stop:
		}
	} else if wait(w.ready, stop) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-w.ready: // granted while stop closed: hand the credits back
		s.held -= n
	default:
		s.waiters.Remove(e)
	}
	s.grantLocked() // whoever queued behind this request may fit now
	return false
}

// Release returns n credits.
func (s *Sem) Release(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	s.held -= n
	s.grantLocked()
	s.mu.Unlock()
}

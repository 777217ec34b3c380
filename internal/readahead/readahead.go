// Package readahead provides the bounded, order-preserving prefetch stage
// the reader filters (RFR, DFR) put in front of their emit loops: the
// per-window fetch function — positioned reads plus uint16→gray-level
// decode — runs up to K windows ahead of the consumer, one goroutine per
// window in flight, so the disk or the remote backend keeps streaming while
// pieces are cut and sent. This is the staging idea of Region Templates
// applied to the paper's §4.3 reader filters.
//
// The contract is deliberately strict:
//
//   - Order-preserving: Next returns fetch results in exactly the order the
//     indices 0..n-1 would be fetched sequentially, regardless of which
//     fetch finishes first.
//   - Bounded: at most depth fetches are completed-but-unconsumed or in
//     flight at any moment, and a fetch is in flight from the moment it
//     holds a credit, so depth is both the number of requests the backend
//     sees at once and the number of window buffers outstanding. The bound
//     is a sem.Sem credit count (the gate) with one owner: fixed (New), moved
//     by whoever made the gate (NewGated — the daemon's governor), or moved
//     by the reader itself from what it measures (NewAuto).
//   - Synchronous degenerate case: depth ≤ 0 (and no gate) runs every fetch
//     inline on the consumer's goroutine — no goroutine, no reordering
//     window, no extra buffering — reproducing the pre-readahead reader
//     loop bit for bit.
//   - Cancellable: Close releases the goroutines even when the consumer
//     stops consuming mid-stream (pipeline abort); it is idempotent and safe
//     to defer alongside normal completion.
package readahead

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"haralick4d/internal/sem"
)

// Fetch produces the item for one index. Fetches run concurrently, one
// goroutine each, when depth > 0, so the function must be safe for
// concurrent calls with distinct indices.
type Fetch[T any] func(index int) (T, error)

// Auto, given as a depth, asks for a self-sized reader (NewAuto). It is no
// count, so no count flag or field can collide with it.
const Auto = math.MinInt

// A run's staging budget, split evenly over its reader copies by AutoCap.
// BudgetBytes is the one byte budget from sink to reader (the paper sizes its
// buffers in bytes): the raw window bytes a run's self-sized readers may have
// outstanding, and the payload bytes each filter copy's input queue may hold.
// MaxRequests is what the backend keeps alive — the HTTP transport's
// connection pool, the local backend's open-handle cache — so no request in
// flight is redialled or evicted; 512 measured slower. Floor is the depth
// every copy keeps whatever the split leaves it.
const (
	BudgetBytes = 16 << 20
	MaxRequests = 256
	Floor       = 4
)

// AutoCap returns the depth one of copies self-sized readers may grow to when
// each of its windows holds windowBytes of raw data: its share of the byte
// budget, clamped by its share of the requests the backend keeps alive. The
// byte budget binds for windows of 64 KiB and more, the request ceiling below.
func AutoCap(copies, windowBytes int) int {
	copies, windowBytes = max(copies, 1), max(windowBytes, 1)
	return max(Floor, min(BudgetBytes/copies/windowBytes, MaxRequests/copies))
}

// Reader streams the results of fetch(0..n-1) in order, prefetching up to
// the gate's current depth indices ahead of the consumer.
type Reader[T any] struct {
	fetch Fetch[T]
	n     int

	// Synchronous mode (gate == nil).
	next int

	// Asynchronous mode. The dispatcher takes a gate credit per index,
	// starts that index's fetch on a goroutine of its own, and queues the
	// index's result slot into pending in index order; the consumer returns
	// the credit as it consumes each result, so the gate's limit is the
	// number of fetches in flight or waiting to be consumed: lowering it
	// mid-stream stops new dispatches until the surplus drains, raising it
	// wakes the dispatcher at once. Closing done releases the dispatcher
	// wherever it blocks.
	gate      *sem.Sem
	held      atomic.Int64 // credits this reader holds (dispatched, unconsumed)
	pending   chan chan result[T]
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	clock     func() time.Time

	// Consumer-side state, touched only from Next: the gate depth seen as
	// the last window was consumed and the greatest seen, and — when the
	// reader sizes its own gate (auto) — the two exponentially weighted
	// means it sizes it from and the time Next last handed a window over.
	depth, peak     int
	auto            bool
	fetchT, consume time.Duration
	returned        time.Time
}

type result[T any] struct {
	v    T
	err  error
	took time.Duration
}

// fold moves the mean one eighth of the way to the sample; the first sample
// seeds it.
func fold(mean *time.Duration, sample time.Duration) {
	if *mean == 0 {
		*mean = sample
		return
	}
	*mean += (sample - *mean) / 8
}

// seedOpen is the backend latency from which a self-sized reader opens at its
// limit: longer than any emit loop in this system takes over one window (they
// measure 10 to 60 µs), so Little's law would send it there anyway and the
// first round trip need not be spent at the floor.
const seedOpen = time.Millisecond

// step is the self-sizing rule: from depth toward Little's law,
// ⌈fetch/consume⌉ + 1 — the fetches that must overlap to deliver a window
// in the time the consumer spends on one, plus the window being consumed.
// Up, it doubles per consumed window until it is there (one window at a time
// was five round trips from 4 to 64; straight there in one step lets a single
// slow fetch on a busy host open dozens of requests that nothing needs).
// Down, it takes one step per consumed window: a consumer stalled on its
// sends sees its time per window grow and walks back down, and a stall that
// passes has idled few connections.
// A target under twice the floor counts as the floor: a page-cache read
// against a fast emit loop measures 3 to 7, and more goroutines than the
// floor buy nothing there. The gate clamps the result into [Floor, cap].
func step(depth int, fetch, consume time.Duration) int {
	if fetch <= 0 || consume <= 0 {
		return depth
	}
	target := int((fetch+consume-1)/consume) + 1
	if target < 2*Floor {
		target = Floor
	}
	switch {
	case target > depth:
		return min(target, 2*depth)
	case target < depth:
		return depth - 1
	}
	return depth
}

// New returns a reader over indices [0, n) that keeps depth fetches in
// flight ahead of the consumer; depth ≤ 0 starts no goroutine and fetches
// inline from Next. The depth is fixed: the reader owns the gate and never
// moves it.
func New[T any](fetch Fetch[T], n, depth int) *Reader[T] {
	if depth <= 0 {
		return &Reader[T]{fetch: fetch, n: n}
	}
	return newAsync(fetch, n, sem.New(depth, depth, depth), false, 0, time.Now)
}

// NewGated returns a reader over indices [0, n) whose read-ahead bound is
// the gate's current limit — moved mid-stream by the gate's owner, never by
// the reader, and shared with every other reader on the same gate (one
// credit per window in flight). A nil gate falls back to a synchronous
// reader.
func NewGated[T any](fetch Fetch[T], n int, g *sem.Sem) *Reader[T] {
	if g == nil {
		return New(fetch, n, 0)
	}
	return newAsync(fetch, n, g, false, 0, time.Now)
}

// NewAuto returns a reader over indices [0, n) that sizes its own depth
// inside [Floor, limit] (see AutoCap) from the fetch and consume times it
// measures, once per consumed window. seed is a latency sample of the same
// backend taken just before (a reader filter's node-index read; 0 when there
// is none): the fetch mean starts from it, and a backend that slow to answer
// (seedOpen) is read at the limit from the first window on.
func NewAuto[T any](fetch Fetch[T], n, limit int, seed time.Duration) *Reader[T] {
	return newAuto(fetch, n, limit, seed, time.Now)
}

func newAuto[T any](fetch Fetch[T], n, limit int, seed time.Duration, clock func() time.Time) *Reader[T] {
	open := Floor
	if seed >= seedOpen {
		open = limit
	}
	return newAsync(fetch, n, sem.New(open, Floor, limit), true, seed, clock)
}

func newAsync[T any](fetch Fetch[T], n int, g *sem.Sem, auto bool, seed time.Duration, clock func() time.Time) *Reader[T] {
	_, hi := g.Bounds()
	r := &Reader[T]{fetch: fetch, n: n, gate: g, auto: auto, fetchT: seed, clock: clock, depth: g.Limit()}
	r.peak = r.depth
	// pending's capacity matches the gate's maximum so a dispatcher holding
	// a credit never blocks on the slot queue.
	r.pending = make(chan chan result[T], hi)
	r.done = make(chan struct{})
	r.wg.Add(1)
	go r.dispatch()
	return r
}

// dispatch starts the fetches in index order, one goroutine each. The gate
// credit taken before each index is the only bound on how many run at once:
// it is held from here until the consumer takes the result in Next.
func (r *Reader[T]) dispatch() {
	defer r.wg.Done()
	defer close(r.pending)
	for i := 0; i < r.n; i++ {
		if !r.gate.Acquire(1, r.done) {
			return
		}
		r.held.Add(1)
		out := make(chan result[T], 1)
		select {
		case r.pending <- out:
		case <-r.done:
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			start := r.clock()
			v, err := r.fetch(i)
			out <- result[T]{v, err, r.clock().Sub(start)} // buffered; never blocks
		}()
	}
}

// Next returns the result for the next index in order. ok is false once all
// n indices have been consumed or the reader has been closed. A fetch error
// is returned in err with ok still true, so the consumer can distinguish
// "stream finished" from "stream failed".
func (r *Reader[T]) Next() (v T, err error, ok bool) {
	if r.gate == nil {
		if r.next >= r.n {
			return v, nil, false
		}
		v, err = r.fetch(r.next)
		r.next++
		return v, err, true
	}
	if r.auto && !r.returned.IsZero() {
		fold(&r.consume, r.clock().Sub(r.returned)) // the consumer's time on the last window
	}
	select {
	case <-r.done: // Close happened-before this Next
		return v, nil, false
	default:
	}
	select {
	case out, open := <-r.pending:
		if !open {
			return v, nil, false
		}
		select {
		case res := <-out:
			r.held.Add(-1)
			r.gate.Release(1)
			r.depth = r.gate.Limit()
			if r.auto {
				fold(&r.fetchT, res.took)
				r.depth = r.gate.Resize(step(r.depth, r.fetchT, r.consume))
				r.returned = r.clock()
			}
			r.peak = max(r.peak, r.depth)
			return res.v, res.err, true
		case <-r.done:
			return v, nil, false
		}
	case <-r.done:
		return v, nil, false
	}
}

// Depth reports the read-ahead depth in force when the last window was
// consumed, the greatest the reader saw, and the bound neither can pass (the
// gate's upper limit); all zero on a synchronous reader. Call it from the
// consumer's goroutine.
func (r *Reader[T]) Depth() (depth, peak, limit int) {
	if r.gate == nil {
		return 0, 0, 0
	}
	_, limit = r.gate.Bounds()
	return r.depth, r.peak, limit
}

// Close stops the prefetcher and waits for every goroutine to exit. It is
// idempotent and must be called even after a complete consumption (defer it)
// so the goroutines never outlive the filter copy. Fetches already in flight
// finish first. Credits still held (results dispatched but never consumed —
// an aborted stream) are returned to the gate, so readers sharing it are not
// starved by a sibling's early exit.
func (r *Reader[T]) Close() {
	if r.gate == nil {
		return
	}
	r.closeOnce.Do(func() {
		close(r.done)
		r.wg.Wait()
		r.gate.Release(int(r.held.Swap(0)))
	})
}

package readahead

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/sem"
)

// These tests pin what a reader does when its gate is resized under live
// traffic, as a self-sized reader resizes its own gate from Next once per
// window. (The semaphore's own resize semantics are pinned in internal/sem.)

// selfSized returns a self-sized reader over n indices, capped at limit and
// opened at it (atLimit) or at Floor, whose clock never moves: its rule then
// measures nothing and never resizes, so a test moves the reader's gate
// itself, at the instant it chooses.
func selfSized(fetch Fetch[int], n, limit int, atLimit bool) *Reader[int] {
	seed := time.Duration(0)
	if atLimit {
		seed = seedOpen
	}
	t0 := time.Unix(1, 0)
	return newAuto(fetch, n, limit, seed, func() time.Time { return t0 })
}

// gateAtRest fails the test unless every credit of g has come home: the
// whole range fits at once only when nothing is held. It may run on any
// goroutine.
func gateAtRest(t *testing.T, g *sem.Sem) {
	t.Helper()
	_, hi := g.Bounds()
	g.Resize(hi)
	closed := make(chan struct{})
	close(closed)
	if !g.Acquire(hi, closed) {
		t.Error("credits still held on the gate after its stream was consumed")
		return
	}
	g.Release(hi)
}

// blockingFetch counts the fetches started and holds each until released.
type blockingFetch struct {
	started atomic.Int64
	release chan struct{}
}

func newBlockingFetch() *blockingFetch { return &blockingFetch{release: make(chan struct{})} }

func (b *blockingFetch) fetch(i int) (int, error) {
	b.started.Add(1)
	<-b.release
	return i, nil
}

// reach spins until exactly want fetches have started and gives an
// over-dispatch a moment to show.
func (b *blockingFetch) reach(t *testing.T, want int64, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.started.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	if got := b.started.Load(); got != want {
		t.Fatalf("%s: %d fetches started, want %d", when, got, want)
	}
}

// TestGateShrinkBelowInFlight: a cut below what a reader already has in
// flight revokes nothing, stops its dispatcher entirely, and dispatch resumes
// only once consumption has drained the surplus under the new limit.
func TestGateShrinkBelowInFlight(t *testing.T) {
	const limit = 3 * Floor
	b := newBlockingFetch()
	r := selfSized(b.fetch, 40, limit, true)
	defer r.Close()
	b.reach(t, limit, "at the limit")
	if d := r.gate.Resize(Floor); d != Floor {
		t.Fatalf("Resize(%d) = %d", Floor, d)
	}
	close(b.release)
	for i := 0; i < limit-Floor; i++ { // down to Floor in flight: at the limit, no free credit
		if v, err, ok := r.Next(); !ok || err != nil || v != i {
			t.Fatalf("Next %d = (%d, %v, %v)", i, v, err, ok)
		}
	}
	b.reach(t, limit, "Floor in flight, limit Floor")
	if _, err, ok := r.Next(); !ok || err != nil {
		t.Fatalf("Next %d: ok=%v err=%v", limit-Floor, ok, err)
	}
	b.reach(t, limit+1, "Floor-1 in flight, limit Floor")
}

// TestGateGrowWakesAllBlocked parks the dispatchers of several readers on
// their full gates and grows each: every newly minted credit starts a fetch,
// and each reader takes only its own, since no reader draws on another's gate.
func TestGateGrowWakesAllBlocked(t *testing.T) {
	const readers, limit = 5, 4 * Floor
	b := newBlockingFetch()
	var rs []*Reader[int]
	for k := 0; k < readers; k++ {
		rs = append(rs, selfSized(b.fetch, 2*limit, limit, false))
	}
	b.reach(t, readers*Floor, "every reader at Floor")
	for _, r := range rs {
		r.gate.Resize(limit)
	}
	b.reach(t, readers*limit, "every reader grown to its limit")
	close(b.release)
	for _, r := range rs {
		r.Close()
	}
}

// TestGateResizeDuringDrain closes every reader in the middle of a resize
// storm on its gate: no dispatcher may stay wedged on it.
func TestGateResizeDuringDrain(t *testing.T) {
	const hi = 2 * Floor
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		r := selfSized(func(i int) (int, error) { runtime.Gosched(); return i, nil }, 1<<30, hi, false)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err, ok := r.Next(); !ok || err != nil {
					t.Errorf("Next: ok=%v err=%v", ok, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.gate.Resize(Floor + i%(hi-Floor+1))
				runtime.Gosched()
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a reader stayed wedged after closing mid-resize")
	}
}

// TestGateConcurrentResizeStress whipsaws each reader's limit across its
// whole range while it streams more than the limit ever allows, and checks
// the invariants no interleaving may break: a reader's fetches running at
// once never exceed its gate's upper bound, every reader still sees its
// windows in order, and each gate is at rest when its stream is consumed.
func TestGateConcurrentResizeStress(t *testing.T) {
	const hi, readers, n = 2 * Floor, 4, 400
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		var cur, peak atomic.Int64
		fetch := func(i int) (int, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			runtime.Gosched()
			cur.Add(-1)
			return i, nil
		}
		r := selfSized(fetch, n, hi, true)
		streamed := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(streamed)
			for i := 0; i < n; i++ {
				if v, err, ok := r.Next(); !ok || err != nil || v != i {
					t.Errorf("Next %d = (%d, %v, %v)", i, v, err, ok)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-streamed:
					if p := peak.Load(); p > hi {
						t.Errorf("observed %d fetches at once, upper bound is %d", p, hi)
					}
					gateAtRest(t, r.gate)
					r.Close()
					return
				default:
					r.gate.Resize(Floor + i%(hi-Floor+1))
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

package readahead

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/sem"
)

// These tests pin what readers do on a gate whose owner resizes it under live
// traffic — the situation the daemon's resource governor creates every time a
// job starts or finishes and every running job's share is re-cut in place.
// (The semaphore's own resize semantics are pinned in internal/sem.)

// gateAtRest fails the test unless every credit of g has come home: the
// whole range fits at once only when nothing is held.
func gateAtRest(t *testing.T, g *sem.Sem) {
	t.Helper()
	_, hi := g.Bounds()
	g.Resize(hi)
	closed := make(chan struct{})
	close(closed)
	if !g.Acquire(hi, closed) {
		t.Fatal("credits still held on the gate after its readers closed")
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
	g := sem.New(8, 1, 16)
	b := newBlockingFetch()
	r := NewGated(b.fetch, 40, g)
	defer r.Close()
	b.reach(t, 8, "limit 8")
	if d := g.Resize(2); d != 2 {
		t.Fatalf("Resize(2) = %d", d)
	}
	close(b.release)
	for i := 0; i < 6; i++ { // 8 in flight down to 2: at the limit, no free credit
		if v, err, ok := r.Next(); !ok || err != nil || v != i {
			t.Fatalf("Next %d = (%d, %v, %v)", i, v, err, ok)
		}
	}
	b.reach(t, 8, "2 in flight, limit 2")
	if _, err, ok := r.Next(); !ok || err != nil {
		t.Fatalf("Next 6: ok=%v err=%v", ok, err)
	}
	b.reach(t, 9, "1 in flight, limit 2")
}

// TestGateGrowWakesAllBlocked parks the dispatchers of several readers on a
// full shared gate and grows it: every newly minted credit starts a fetch, not
// just one for the first dispatcher woken.
func TestGateGrowWakesAllBlocked(t *testing.T) {
	const readers = 5
	g := sem.New(1, 1, 16)
	b := newBlockingFetch()
	var rs []*Reader[int]
	for k := 0; k < readers; k++ {
		rs = append(rs, NewGated(b.fetch, 10, g))
	}
	b.reach(t, 1, "limit 1 over five readers")
	g.Resize(readers)
	b.reach(t, readers, "limit grown to one credit per reader")
	close(b.release)
	for _, r := range rs {
		r.Close()
	}
	gateAtRest(t, g)
}

// TestGateResizeDuringDrain closes every reader in the middle of a resize
// storm: no dispatcher may stay wedged on the gate, and every credit —
// dispatched, in flight, or fetched and never consumed — must come home.
func TestGateResizeDuringDrain(t *testing.T) {
	g := sem.New(2, 1, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewGated(func(i int) (int, error) { runtime.Gosched(); return i, nil }, 1<<30, g)
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
			g.Resize(1 + i%8)
			runtime.Gosched()
		}
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a reader stayed wedged after closing mid-resize")
	}
	<-resizerDone
	gateAtRest(t, g)
}

// TestGateConcurrentResizeStress whipsaws the limit across its whole range
// under readers that want more than it ever allows and checks the invariants
// no interleaving may break: fetches running at once never exceed the gate's
// upper bound, every reader still sees its windows in order, and the gate is
// at rest when they are done.
func TestGateConcurrentResizeStress(t *testing.T) {
	const hi, readers, n = 8, 4, 400
	g := sem.New(hi, 1, hi)
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
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewGated(fetch, n, g)
			defer r.Close()
			for i := 0; i < n; i++ {
				if v, err, ok := r.Next(); !ok || err != nil || v != i {
					t.Errorf("Next %d = (%d, %v, %v)", i, v, err, ok)
					return
				}
			}
		}()
	}
	streamed := make(chan struct{})
	go func() { wg.Wait(); close(streamed) }()
	for i := 0; ; i++ {
		select {
		case <-streamed:
			if p := peak.Load(); p > hi {
				t.Fatalf("observed %d fetches at once, upper bound is %d", p, hi)
			}
			gateAtRest(t, g)
			return
		default:
			g.Resize(1 + i%hi)
			runtime.Gosched()
		}
	}
}

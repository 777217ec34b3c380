package autotune

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/sem"
)

// These tests pin the admission semaphore, used the way the texture filters
// use it (one credit per chunk being computed), when Resize races live
// traffic — what the controller's admission knob does every tick it moves, and
// the daemon's resource governor every time a job starts or finishes. The
// weighted semantics are pinned in internal/sem.

// TestTokensShrinkBelowInFlight pins the shrink semantics when the cut goes
// below what is already held: nothing is revoked, new admissions stop
// entirely, and they resume only once the holders drain below the new limit.
func TestTokensShrinkBelowInFlight(t *testing.T) {
	tk := sem.New(8, 1, 16)
	for i := 0; i < 8; i++ {
		if !tk.Acquire(1, nil) {
			t.Fatal("acquire within the limit blocked")
		}
	}
	if n := tk.Resize(2); n != 2 {
		t.Fatalf("Resize(2) = %d", n)
	}
	admitted := make(chan bool, 1)
	go func() { admitted <- tk.Acquire(1, nil) }()
	mustBlock := func(when string) {
		t.Helper()
		select {
		case <-admitted:
			t.Fatalf("admission while at or over the shrunken limit (%s)", when)
		case <-time.After(20 * time.Millisecond):
		}
	}
	mustBlock("8 held, limit 2")
	for i := 0; i < 6; i++ { // drain to exactly the new limit
		tk.Release(1)
	}
	mustBlock("2 held, limit 2")
	tk.Release(1) // 1 held < limit 2: the waiter gets the freed token
	select {
	case ok := <-admitted:
		if !ok {
			t.Fatal("Acquire returned false with no stop close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("draining below the shrunken limit did not admit the waiter")
	}
	tk.Release(1)
	tk.Release(1)
}

// TestTokensGrowWakesAllBlocked parks several acquirers on a full semaphore
// and grows it: every newly minted token must be handed to a waiter, not
// just the first one the broadcast happens to wake.
func TestTokensGrowWakesAllBlocked(t *testing.T) {
	tk := sem.New(1, 1, 16)
	if !tk.Acquire(1, nil) {
		t.Fatal("first acquire blocked")
	}
	const waiters = 5
	admitted := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() { admitted <- tk.Acquire(1, nil) }()
	}
	time.Sleep(20 * time.Millisecond) // park them on the cond
	tk.Resize(1 + waiters)            // one held + one token per waiter
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-admitted:
			if !ok {
				t.Fatal("woken Acquire returned false")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d still blocked after grow", i)
		}
	}
	for i := 0; i < 1+waiters; i++ {
		tk.Release(1)
	}
}

// TestTokensResizeDuringDrain closes stop in the middle of a resize storm:
// every blocked acquirer must abort with false — none may stay wedged on
// the cond — and every token must come home. (The workers also poll stop
// after each release: the fast Acquire path deliberately admits without
// checking stop, so a worker that keeps winning tokens would otherwise
// never observe the drain.)
func TestTokensResizeDuringDrain(t *testing.T) {
	tk := sem.New(2, 1, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk.Acquire(1, stop) {
				time.Sleep(time.Millisecond)
				tk.Release(1)
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
			tk.Resize(1 + i%8)
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an acquirer stayed wedged after stop closed mid-resize")
	}
	<-resizerDone
	tokensAtRest(t, tk)
}

// TestTokensConcurrentResizeStress whipsaws the limit across its whole
// range under 2x oversubscribed traffic and checks the invariant no
// interleaving may break: concurrent holders never exceed the semaphore's
// upper bound, and it is at rest when the traffic stops.
func TestTokensConcurrentResizeStress(t *testing.T) {
	const hi = 8
	tk := sem.New(hi, 1, hi)
	stop := make(chan struct{})
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2*hi; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk.Acquire(1, stop) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				cur.Add(-1)
				tk.Release(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		tk.Resize(1 + i%hi)
	}
	close(stop)
	wg.Wait()
	if p := peak.Load(); p > hi {
		t.Fatalf("observed %d concurrent holders, upper bound is %d", p, hi)
	}
	tokensAtRest(t, tk)
}

// tokensAtRest fails the test unless every token has come home: the whole
// range fits at once only when nothing is held.
func tokensAtRest(t *testing.T, tk *sem.Sem) {
	t.Helper()
	_, hi := tk.Bounds()
	tk.Resize(hi)
	closed := make(chan struct{})
	close(closed)
	if !tk.Acquire(hi, closed) {
		t.Fatal("tokens still held after the traffic stopped")
	}
	tk.Release(hi)
}

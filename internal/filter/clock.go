package filter

import (
	"sync"
	"time"
)

// clock is the runtime's one seam between the real engines and the
// simulated cluster: how time is read, how a task (a filter copy, or the
// drainer of a dead one) starts and blocks, how a copy's compute segment is
// charged, and how the run waits for its tasks. The wall clock runs every
// task as a free goroutine on host time; the virtual clock (sim.go) grants
// one task at a time and keeps simulated time.
type clock interface {
	// now is the time since the run started.
	now() time.Duration
	// spawn starts a task on behalf of the copy st.
	spawn(st *copyState, task func())
	// wait blocks the calling task until a or b is ready, or reports false
	// once the run aborts. A nil channel is never ready; a token in a
	// buffered channel is taken, as a select would.
	wait(a, b <-chan struct{}) bool
	// compute closes the calling copy's compute segment, which began at
	// since, charging it to the copy's busy time, and returns the time the
	// segment ended.
	compute(st *copyState, since time.Duration) time.Duration
	// drive waits until every task has finished. It returns false when
	// the stall watchdog tripped and wedged tasks did not unwind within its
	// grace period, and the run gives up on them.
	drive(rt *runtime) bool
}

// wallClock is the real engines' clock: every task is a goroutine, time is
// the host's monotonic clock and a blocked task waits in a select.
type wallClock struct {
	start time.Time
	done  <-chan struct{} // the run's abort
	tasks sync.WaitGroup
}

func (w *wallClock) now() time.Duration { return time.Since(w.start) }

func (w *wallClock) spawn(_ *copyState, task func()) {
	w.tasks.Add(1)
	go func() {
		defer w.tasks.Done()
		task()
	}()
}

func (w *wallClock) wait(a, b <-chan struct{}) bool {
	select {
	case <-a:
		return true
	case <-b:
		return true
	case <-w.done:
		return false
	}
}

func (w *wallClock) compute(st *copyState, since time.Duration) time.Duration {
	now := w.now()
	st.led.Busy.Add(int64(now - since))
	return now
}

func (w *wallClock) drive(rt *runtime) bool {
	finished := make(chan struct{})
	go func() {
		w.tasks.Wait()
		close(finished)
	}()
	if rt.stall <= 0 {
		<-finished
		return true
	}
	stalled := make(chan struct{})
	go rt.watchdog(w, stalled, finished)
	select {
	case <-finished:
		return true
	case <-stalled:
	}
	// Copies blocked on streams unwind via rt.done, but a goroutine truly
	// wedged inside filter code (a hung read, an endless loop) cannot be
	// interrupted: after a grace period the run abandons it.
	select {
	case <-finished:
		return true
	case <-time.After(stallGrace(rt.stall)):
		return false
	}
}

// stallGrace is how long a tripped watchdog waits for the copies to unwind
// before the run abandons them.
func stallGrace(timeout time.Duration) time.Duration { return min(timeout, 2*time.Second) }

package filter

import (
	"fmt"
	"sync"
)

// failoverState coordinates copy failover for one eligible filter: buffers
// that were in flight at (or delivered after) a copy's death wait here for a
// surviving copy to take them, and the quiescence counters let survivors
// tell "no more work can appear" apart from "a sibling may still crash and
// requeue its buffer".
//
// A filter is eligible when failover is enabled, it has at least one inbound
// connection, every inbound connection is policy-routed (round-robin or
// demand-driven — transparent copies are interchangeable by construction),
// and it has more than one copy. Explicitly-addressed filters (IIC, HIC) are
// not eligible: their copies hold partitioned state no sibling can take over.
type failoverState struct {
	mu sync.Mutex
	// wake is closed and replaced on every state change; waiters grab the
	// current channel under mu and select on it.
	wake chan struct{}
	// requeued holds un-acked buffers of dead copies plus anything delivered
	// to a dead copy's inbox, awaiting redelivery to a survivor.
	requeued []inMsg
	// draining counts dead copies whose inboxes are still being drained —
	// their traffic may yet land in requeued.
	draining int
	// processing counts copies that may still produce requeued work: every
	// copy from start until it enters the final wait (all EOS seen, nothing
	// requeued), re-entering while it processes a requeued buffer. Dead
	// copies leave the count at death.
	processing int
	// alive counts copies that have not failed.
	alive int
	// redelivered counts buffers handed to a surviving copy's siblings.
	redelivered int64
}

func newFailoverState(copies int) *failoverState {
	return &failoverState{wake: make(chan struct{}), processing: copies, alive: copies}
}

// failoverEligible reports whether the named filter's copies may inherit
// each other's buffers.
func failoverEligible(g *Graph, name string, copies int) bool {
	if copies < 2 {
		return false
	}
	into := g.ConnsInto(name)
	if len(into) == 0 {
		return false
	}
	for _, c := range into {
		if c.Policy == Explicit {
			return false
		}
	}
	return true
}

// broadcastLocked wakes every waiter. Callers hold mu.
func (fo *failoverState) broadcastLocked() {
	close(fo.wake)
	fo.wake = make(chan struct{})
}

// requeue adds a buffer drained from a dead copy's inbox.
func (fo *failoverState) requeue(m inMsg) {
	fo.mu.Lock()
	fo.requeued = append(fo.requeued, m)
	fo.redelivered++
	fo.broadcastLocked()
	fo.mu.Unlock()
}

// release retires one processing slot for a copy that finished without ever
// entering the final wait (an early Run return).
func (fo *failoverState) release() {
	fo.mu.Lock()
	fo.processing--
	fo.broadcastLocked()
	fo.mu.Unlock()
}

// poll advances c's failover state machine under one lock acquisition. It
// returns a requeued buffer when one is available; otherwise, when c has
// seen all EOS, it parks c in the final wait and reports via done whether
// the filter's stream is fully quiescent (every copy parked or dead, no
// drains pending, nothing requeued). The returned channel wakes c on the
// next state change.
func (fo *failoverState) poll(c *localCtx) (m inMsg, ok, done bool, wake chan struct{}) {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	if len(fo.requeued) > 0 {
		m = fo.requeued[0]
		fo.requeued = fo.requeued[1:]
		if c.finalWaited {
			fo.processing++
			c.finalWaited = false
		}
		return m, true, false, nil
	}
	if c.openIn == 0 {
		if !c.finalWaited {
			c.finalWaited = true
			fo.processing--
			fo.broadcastLocked()
		}
		if fo.draining == 0 && fo.processing == 0 {
			return inMsg{}, false, true, nil
		}
	}
	return inMsg{}, false, false, fo.wake
}

// tolerateFailure decides the fate of a failed copy. When the failure is
// tolerable it marks the copy dead, requeues its un-acked buffer, spawns the
// inbox drainer, and returns true — the caller proceeds to signal EOS
// downstream as if the copy had finished. Otherwise it records the terminal
// run error (typed: ErrCopyFailed, or ErrAllCopiesDead when this was the
// filter's last copy) and returns false.
func (rt *runtime) tolerateFailure(st *copyState, ctx *localCtx, err error) bool {
	fo := rt.failover[st.filter]
	if fo == nil {
		rt.fail(fmt.Errorf("filter %s[%d]: %w: %w", st.filter, st.copyIdx, ErrCopyFailed, err))
		return false
	}
	fo.mu.Lock()
	fo.alive--
	if fo.alive == 0 {
		fo.mu.Unlock()
		rt.fail(fmt.Errorf("filter %s: %w: last copy %d: %w", st.filter, ErrAllCopiesDead, st.copyIdx, err))
		return false
	}
	st.dead.Store(true)
	st.led.Fail(err)
	if ctx.hasInflight {
		fo.requeued = append(fo.requeued, ctx.inflight)
		fo.redelivered++
		ctx.hasInflight = false
	}
	if !ctx.finalWaited {
		fo.processing--
	}
	fo.draining++
	fo.broadcastLocked()
	fo.mu.Unlock()

	expect := 0
	for _, n := range st.eosExpect {
		expect += n
	}
	seen := 0
	for _, n := range ctx.eosSeen {
		seen += n
	}
	rt.auxWG.Add(1)
	go rt.drainDead(st, fo, expect-seen)
	return true
}

// drainDead consumes a dead copy's inbox on its behalf: data buffers are
// requeued to the survivors, end-of-stream markers are counted until every
// producer has signed off, keeping producers (and remote receive loops)
// unblocked.
func (rt *runtime) drainDead(st *copyState, fo *failoverState, remaining int) {
	defer rt.auxWG.Done()
	for remaining > 0 {
		// take hands the buffer's queue credits back, so the producers (and
		// remote receive loops) blocked on this dead copy's budget move on and
		// the requeued buffer no longer counts against anyone's.
		m, ok := st.inbox.takeWait(rt.done)
		if !ok {
			return
		}
		if m.eos {
			remaining--
			continue
		}
		st.pending.Add(-1)
		fo.requeue(m)
	}
	fo.mu.Lock()
	fo.draining--
	fo.broadcastLocked()
	fo.mu.Unlock()
}

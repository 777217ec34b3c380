package filter

import (
	"container/heap"
	"context"
	"sync/atomic"
	"time"

	"haralick4d/internal/metrics"
)

// Machine is the simulated cluster's hardware as the virtual clock charges
// it: each node's CPU speed and what moving bytes between two nodes costs.
// *cluster.Topology implements it.
type Machine interface {
	// Validate checks that the machine has the graph's nodes.
	Validate(nodes int) error
	// Speed is a node's CPU speed relative to the reference processor;
	// compute charges divide by it.
	Speed(node int) float64
	// Transfer is the cost of moving n bytes from node a to node b (a ≠ b):
	// the link the transfer occupies (transfers on one link are
	// serialized), its latency, and how long the bytes occupy the link.
	// Zero latency and occupancy is a memory hand-off.
	Transfer(a, b, n int) (link int, latency, occupancy time.Duration)
}

// LinkOverheadBytes is the per-buffer wire overhead the simulated links
// charge on top of the payload (headers, framing). It costs link time only:
// the ledgers and the queue budget count payload bytes, as on every engine.
const LinkOverheadBytes = 64

// RunSim executes the graph on a simulated cluster and returns its run
// report in virtual time. It is the same runtime as RunLocal and RunTCP on
// a virtual clock: filter code executes for real (outputs are real), one
// copy at a time; the host time of each compute segment, × computeScale /
// the node's speed, is charged to the node's CPU (segments of co-located
// copies serialize, as on the paper's single-processor nodes); every
// cross-node buffer pays latency plus its bytes' occupancy on its link, with
// transfers on one link serialized. computeScale converts host time into
// virtual time on a speed-1 node (≤ 0 means 1).
//
// Engine-measured times (busy, blocked, stalled, stream send waits, the
// elapsed time) are virtual; the spans and pool counters filters record are
// host wall time. Cancelling ctx aborts the run between grants: a running
// compute segment finishes (filter code cannot be interrupted), then every
// copy winds down and the run returns ctx's error with the report of what
// ran so far. Options apply as on the local engine: the TCP link options are
// ignored, and StallTimeout counts virtual time.
func RunSim(ctx context.Context, g *Graph, m Machine, computeScale float64, opts *Options) (*metrics.RunReport, error) {
	rt, err := newRuntime(g, opts, nil)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if computeScale <= 0 {
		computeScale = 1
	}
	v := &virtualClock{
		rt: rt, machine: m, scale: computeScale,
		yield:   make(chan struct{}),
		cpuBusy: make([]time.Duration, g.NumNodes()),
	}
	rt.clk, rt.engine = v, "sim"
	rt.semWait = func(ready, _ <-chan struct{}) bool { return v.wait(ready, nil) }
	rt.trans = &simTransport{v: v, links: map[int]time.Duration{}}
	return rt.run(ctx)
}

// virtualClock is the simulated cluster's clock: a discrete-event scheduler
// that grants one task at a time. A task runs until it yields — at every
// Recv and Send, where its compute segment is charged and it resumes when
// its node's CPU has worked the segment off, and wherever it would block —
// so runtime state is touched by one goroutine at a time and the order of
// events is the host's only through the compute charges.
type virtualClock struct {
	rt      *runtime
	machine Machine
	scale   float64

	t       atomic.Int64 // virtual now; atomic for the Monitor's probes
	cur     *task        // the task holding the grant
	yield   chan struct{}
	ready   []*task // granted in order
	waiting []*task // parked on channels
	stirred bool    // a channel a parked task waits on may have become ready
	events  eventHeap
	seq     int
	live    int
	cpuBusy []time.Duration // when each node's CPU is free again
}

// task is one goroutine under the virtual clock.
type task struct {
	st     *copyState
	resume chan struct{}
	wall   time.Time          // host time t last started running
	on     [2]<-chan struct{} // what it is parked on
}

// event is a task's compute segment ending, or fn: a buffer landing.
type event struct {
	at  time.Duration
	seq int
	t   *task
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (v *virtualClock) now() time.Duration { return time.Duration(v.t.Load()) }

// at schedules ev at virtual time t.
func (v *virtualClock) at(t time.Duration, ev event) {
	v.seq++
	ev.at, ev.seq = t, v.seq
	heap.Push(&v.events, ev)
}

func (v *virtualClock) spawn(st *copyState, fn func()) {
	t := &task{st: st, resume: make(chan struct{})}
	v.live++
	v.ready = append(v.ready, t)
	go func() {
		<-t.resume
		t.wall = time.Now()
		fn()
		v.live--
		v.yield <- struct{}{}
	}()
}

// park hands the grant back to the scheduler until t is granted again. The
// host clock restarts once t runs, so the hand-off's latency is not charged
// as compute.
func (v *virtualClock) park(t *task) {
	v.yield <- struct{}{}
	<-t.resume
	t.wall = time.Now()
}

func (v *virtualClock) wait(a, b <-chan struct{}) bool {
	for {
		if ready(v.rt.done) {
			return false
		}
		if take(a) || take(b) {
			return true
		}
		t := v.cur
		t.on = [2]<-chan struct{}{a, b}
		v.waiting = append(v.waiting, t)
		v.park(t)
	}
}

func (v *virtualClock) compute(st *copyState, _ time.Duration) time.Duration {
	t := v.cur
	busy := time.Duration(float64(time.Since(t.wall)) * v.scale / v.machine.Speed(st.node))
	now := v.now()
	if busy <= 0 {
		return now
	}
	// The busy time is on the ledger from the yield on, so a demand-driven
	// producer sees the copy's service time while the segment is worked off.
	st.led.Busy.Add(int64(busy))
	// A node's CPU is a shared resource: compute segments of copies
	// co-located on one (single-processor) node serialize, as the paper
	// notes for its PIII nodes ("the CPU has to multiplex between the two
	// filters and its power has to be shared").
	end := max(now, v.cpuBusy[st.node]) + busy
	v.cpuBusy[st.node] = end
	v.at(end, event{t: t})
	v.park(t)
	return end
}

// drive runs the scheduler until every task has finished: grant the ready
// tasks in order, then move the clock to the next event. With nothing ready
// and no event left, no copy can ever run again, and the run fails with a
// StallError naming the blocked copies. An armed StallTimeout trips when the
// next event lies further than it from the last progress.
func (v *virtualClock) drive(rt *runtime) bool {
	watch := newStallWatch(rt, 0)
	for v.live > 0 {
		if v.stirred {
			v.wake()
		}
		if len(v.ready) > 0 {
			t := v.ready[0]
			v.ready = v.ready[1:]
			if !v.grant(t, watch) {
				return false
			}
			// Only the granted copy moves its own heartbeat.
			watch.note(t.st, v.now())
			v.stirred = true
			continue
		}
		aborted := ready(rt.done)
		if v.events.Len() == 0 {
			if !aborted {
				watch.trip(0, v.now())
			}
			if len(v.waiting) == 0 {
				return false // cannot happen: a live task is ready, parked or timed
			}
			v.wake() // every wait ends on the abort
			continue
		}
		if rt.stall > 0 && !aborted && v.events[0].at-watch.change > rt.stall {
			v.t.Store(int64(watch.change + rt.stall))
			watch.trip(rt.stall, v.now())
			v.stirred = true
			continue
		}
		ev := heap.Pop(&v.events).(event)
		if ev.at > v.now() {
			v.t.Store(int64(ev.at))
		}
		if ev.t != nil {
			v.ready = append(v.ready, ev.t)
		} else {
			ev.fn()
			v.stirred = true
		}
	}
	return true
}

// grant runs t until it yields. Under an armed StallTimeout it also bounds
// the host time t may take: once the segment alone would be charged past the
// deadline the watchdog trips, and a task that then does not yield within
// the grace period is abandoned (false), as on the wall clock.
func (v *virtualClock) grant(t *task, watch *stallWatch) bool {
	v.cur = t
	t.resume <- struct{}{}
	if v.rt.stall <= 0 || ready(v.rt.done) {
		<-v.yield
		return true
	}
	left := watch.change + v.rt.stall - v.now()
	limit := time.Duration(float64(max(left, 0)) * v.machine.Speed(t.st.node) / v.scale)
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-v.yield:
		return true
	case <-timer.C:
	}
	v.t.Store(int64(max(v.now(), watch.change+v.rt.stall)))
	watch.trip(v.rt.stall, v.now())
	select {
	case <-v.yield:
		return true
	case <-time.After(stallGrace(v.rt.stall)):
		return false
	}
}

// wake moves every parked task whose channel is ready to the ready list, in
// the order they parked; after an abort, all of them.
func (v *virtualClock) wake() {
	v.stirred = false
	aborted := ready(v.rt.done)
	kept := v.waiting[:0]
	for _, t := range v.waiting {
		if aborted || ready(t.on[0]) || ready(t.on[1]) {
			t.on = [2]<-chan struct{}{}
			v.ready = append(v.ready, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(v.waiting[len(kept):])
	v.waiting = kept
}

// ready reports, without taking anything, whether a receive from ch would
// proceed: a token is buffered, or ch is closed.
func ready(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	if cap(ch) > 0 {
		return len(ch) > 0
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// take receives from ch if that would proceed.
func take(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// simTransport carries buffers between the simulated nodes: a buffer takes
// its credits at the consumer when it is sent (so buffers on the wire count
// against the consumer's budget) and lands in the queue when the link has
// carried it.
type simTransport struct {
	v     *virtualClock
	links map[int]time.Duration // when each link is free again
}

func (s *simTransport) deliver(from, to *copyState, m inMsg) error {
	rt := s.v.rt
	if !to.inbox.credits.AcquireWith(m.size, rt.done, rt.semWait) {
		return errStopped
	}
	link, latency, busy := s.v.machine.Transfer(from.node, to.node, m.size+LinkOverheadBytes)
	if latency == 0 && busy == 0 {
		// A zero-cost path (two processors of one box): memory hand-off,
		// never queued behind the box's network interface.
		to.inbox.push(m)
		return nil
	}
	start := max(s.v.now(), s.links[link])
	s.links[link] = start + busy
	s.v.at(start+latency+busy, event{fn: func() { to.inbox.push(m) }})
	return nil
}

// transfer is the nominal cost of reaching a copy: latency plus occupancy.
// The live backlog of the link is deliberately not consulted: a
// consumption-rate scheduler has no view of the network's instantaneous
// state.
func (s *simTransport) transfer(a, b, bytes int) time.Duration {
	_, latency, busy := s.v.machine.Transfer(a, b, bytes+LinkOverheadBytes)
	return latency + busy
}

func (s *simTransport) close() error { return nil }

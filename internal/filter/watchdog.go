package filter

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrStalled marks a run aborted by the stall watchdog: no filter copy in
// the whole pipeline made progress for longer than Options.StallTimeout, or,
// under the simulated cluster, none could run at all. Use errors.As with
// *StallError for the per-copy diagnosis.
var ErrStalled = errors.New("filter: pipeline stalled")

// StalledCopy describes one filter copy that had not progressed when the
// watchdog tripped.
type StalledCopy struct {
	Filter string
	Copy   int
	Node   int
	// State is what the copy was doing when last observed: "busy" (inside
	// filter code — a wedged computation or blocked I/O call), "send-wait"
	// (blocked delivering a buffer downstream) or "recv-wait" (blocked
	// waiting for input).
	State string
	// Idle is how long the copy had shown no progress when the watchdog
	// tripped.
	Idle time.Duration
	// LastProgress is the wall-clock time the copy's heartbeat last
	// advanced — when reading a daemon log long after the fact, the
	// absolute timestamp correlates with backend/peer events in a way the
	// relative Idle cannot. Under the virtual clock it is the run's host
	// start plus the virtual offset.
	LastProgress time.Time
}

// StallError is the diagnostic the watchdog fails the run with, and the
// error of a simulated run in which no copy can run (a deadlock). The most
// suspicious copies come first: a copy stuck inside filter code outranks
// one blocked sending (its consumer is wedged), which outranks one merely
// starved of input — so Stalled[0] usually names the culprit rather than a
// victim of backpressure.
type StallError struct {
	// Timeout is the deadline that tripped; 0 for a deadlock, which the
	// virtual clock detects at once.
	Timeout time.Duration
	Stalled []StalledCopy
}

// Unwrap makes errors.Is(err, ErrStalled) hold.
func (e *StallError) Unwrap() error { return ErrStalled }

func (e *StallError) Error() string {
	var b strings.Builder
	if e.Timeout > 0 {
		fmt.Fprintf(&b, "filter: pipeline stalled: no progress for %v", e.Timeout)
	} else {
		b.WriteString("filter: pipeline stalled: deadlock, no copy can run")
	}
	if len(e.Stalled) == 0 {
		b.WriteString(" (every copy reports done; the run is wedged outside filter code)")
		return b.String()
	}
	b.WriteString("; unfinished copies: ")
	for i, s := range e.Stalled {
		if i == 4 {
			fmt.Fprintf(&b, ", +%d more", len(e.Stalled)-4)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s[%d] on node %d (%s %v, last progress %s)",
			s.Filter, s.Copy, s.Node, s.State, s.Idle.Round(time.Millisecond),
			s.LastProgress.Format("15:04:05.000"))
	}
	return b.String()
}

// Copy lifecycle phases the watchdog reads to label a stalled copy. They
// are advisory (updated with plain atomic stores on the hot path), so a
// label can lag reality by one transition — good enough for a diagnostic.
const (
	phaseRun  = int32(iota) // inside filter code
	phaseRecv               // blocked in Recv
	phaseSend               // blocked delivering in Send/SendTo
	phaseDone               // filter Run returned
)

func phaseName(p int32) string {
	switch p {
	case phaseRecv:
		return "recv-wait"
	case phaseSend:
		return "send-wait"
	default:
		return "busy"
	}
}

// watchdog aborts the run with a StallError when no copy anywhere makes
// progress for longer than the timeout, and then closes stalled. Any
// heartbeat that moves resets it — a global deadline, so ordinary backpressure
// chains (everyone waiting on one busy filter that IS progressing) never
// trip it; only a truly wedged pipeline does. finished is closed when all
// tasks have wound down.
func (rt *runtime) watchdog(clk clock, stalled chan<- struct{}, finished <-chan struct{}) {
	tick := min(max(rt.stall/8, time.Millisecond), time.Second)
	w := newStallWatch(rt, clk.now())
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-finished:
			return
		case <-rt.done:
			return
		case <-t.C:
		}
		now := clk.now()
		if w.observe(now) <= rt.stall {
			continue
		}
		w.trip(rt.stall, now)
		close(stalled)
		return
	}
}

// stallWatch follows every copy's heartbeat (metrics.Ledger.Progress) for
// the watchdog of either clock, and names the unfinished copies when it
// trips.
type stallWatch struct {
	rt     *runtime
	copies []*copyState
	index  map[*copyState]int
	last   []int64         // each copy's heartbeat when last sampled
	seen   []time.Duration // when each copy's heartbeat last moved
	change time.Duration   // when any heartbeat last moved
}

func newStallWatch(rt *runtime, now time.Duration) *stallWatch {
	w := &stallWatch{rt: rt, index: map[*copyState]int{}, change: now}
	for _, fs := range rt.graph.Filters {
		w.copies = append(w.copies, rt.copies[fs.Name]...)
	}
	w.last = make([]int64, len(w.copies))
	w.seen = make([]time.Duration, len(w.copies))
	for i, st := range w.copies {
		w.index[st] = i
		w.last[i] = st.led.Progress()
		w.seen[i] = now
	}
	return w
}

// observe samples every heartbeat at now and returns how long the whole
// graph has gone without progress.
func (w *stallWatch) observe(now time.Duration) time.Duration {
	for _, st := range w.copies {
		w.note(st, now)
	}
	return now - w.change
}

// note samples one copy's heartbeat at now.
func (w *stallWatch) note(st *copyState, now time.Duration) {
	i := w.index[st]
	if p := st.led.Progress(); p != w.last[i] {
		w.last[i], w.seen[i], w.change = p, now, now
	}
}

// trip fails the run with a StallError at now, the most suspicious copies
// first. timeout 0 marks a deadlock found by the virtual clock.
func (w *stallWatch) trip(timeout, now time.Duration) {
	e := &StallError{Timeout: timeout}
	for i, st := range w.copies {
		ph := st.phase.Load()
		if ph == phaseDone || st.dead.Load() {
			continue
		}
		e.Stalled = append(e.Stalled, StalledCopy{
			Filter: st.filter, Copy: st.copyIdx, Node: st.node,
			State: phaseName(ph), Idle: now - w.seen[i], LastProgress: w.rt.start.Add(w.seen[i]),
		})
	}
	sort.SliceStable(e.Stalled, func(a, b int) bool {
		ra, rb := stateRankName(e.Stalled[a].State), stateRankName(e.Stalled[b].State)
		if ra != rb {
			return ra < rb
		}
		return e.Stalled[a].Idle > e.Stalled[b].Idle
	})
	w.rt.fail(e)
}

func stateRankName(s string) int {
	switch s {
	case "busy":
		return 0
	case "send-wait":
		return 1
	default:
		return 2
	}
}

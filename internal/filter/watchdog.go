package filter

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ErrStalled marks a run aborted by the stall watchdog: no filter copy in
// the whole pipeline made progress for longer than Options.StallTimeout.
// Use errors.As with *StallError for the per-copy diagnosis.
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
	// relative Idle cannot.
	LastProgress time.Time
}

// StallError is the diagnostic the watchdog fails the run with. The most
// suspicious copies come first: a copy stuck inside filter code outranks
// one blocked sending (its consumer is wedged), which outranks one merely
// starved of input — so Stalled[0] usually names the culprit rather than a
// victim of backpressure.
type StallError struct {
	Timeout time.Duration
	Stalled []StalledCopy
}

// Unwrap makes errors.Is(err, ErrStalled) hold.
func (e *StallError) Unwrap() error { return ErrStalled }

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "filter: pipeline stalled: no progress for %v", e.Timeout)
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
// progress for longer than timeout. It watches the sum of all heartbeats —
// a global deadline, so ordinary backpressure chains (everyone waiting on
// one busy filter that IS progressing) never trip it; only a truly wedged
// pipeline does. finished is closed when all copies have wound down.
func (rt *runtime) watchdog(timeout time.Duration, finished <-chan struct{}) {
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	var all []*copyState
	for _, fs := range rt.graph.Filters {
		all = append(all, rt.copies[fs.Name]...)
	}
	last := make([]int64, len(all))
	seen := make([]time.Time, len(all))
	now := time.Now()
	var total int64
	for i, st := range all {
		last[i] = st.led.Progress()
		seen[i] = now
		total += last[i]
	}
	lastTotal, lastChange := total, now
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-finished:
			return
		case <-rt.done:
			return
		case now = <-t.C:
		}
		total = 0
		for i, st := range all {
			p := st.led.Progress()
			if p != last[i] {
				last[i] = p
				seen[i] = now
			}
			total += p
		}
		if total != lastTotal {
			lastTotal, lastChange = total, now
			continue
		}
		if now.Sub(lastChange) <= timeout {
			continue
		}
		e := &StallError{Timeout: timeout}
		for i, st := range all {
			ph := st.phase.Load()
			if ph == phaseDone || st.dead.Load() {
				continue
			}
			e.Stalled = append(e.Stalled, StalledCopy{
				Filter: st.filter, Copy: st.copyIdx, Node: st.node,
				State: phaseName(ph), Idle: now.Sub(seen[i]), LastProgress: seen[i],
			})
		}
		sort.SliceStable(e.Stalled, func(a, b int) bool {
			ra, rb := stateRankName(e.Stalled[a].State), stateRankName(e.Stalled[b].State)
			if ra != rb {
				return ra < rb
			}
			return e.Stalled[a].Idle > e.Stalled[b].Idle
		})
		rt.fail(e)
		close(rt.stalled)
		return
	}
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

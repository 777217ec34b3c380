// Live snapshots and tuning records.
//
// RunReport is built once, after a run finishes. The autotune controller
// instead needs a consistent mid-run view, sampled every tick without
// perturbing the copies it observes. Snapshot is that view: every field is
// read from an atomic the hot path already maintains (span timers, service
// counters, the blocked/stalled mirrors), so taking one costs a few dozen
// atomic loads and no locks shared with filter goroutines.
//
// The contract the controller depends on (pinned by the snapshot-delta
// tests in internal/filter):
//
//   - Counters and span nanoseconds are monotonic non-decreasing between
//     two snapshots of the same run.
//   - Per-copy identity is stable: filter order follows the spec order of
//     the graph and copy index never changes, so delta(snap2, snap1) can be
//     computed position-wise.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// CopySnap is the live counterpart of CopyReport, restricted to fields the
// runtime maintains atomically.
type CopySnap struct {
	Copy int `json:"copy"`
	Node int `json:"node"`

	// BusyNS is total compute service time; MsgsIn/MsgsOut count messages
	// consumed and produced. BlockedRecvNS and StalledSendNS are cumulative
	// time spent waiting for input and for downstream credit.
	BusyNS        int64 `json:"busy_ns"`
	BlockedRecvNS int64 `json:"blocked_recv_ns"`
	StalledSendNS int64 `json:"stalled_send_ns"`
	MsgsIn        int64 `json:"msgs_in"`
	MsgsOut       int64 `json:"msgs_out"`
	QueueLen      int64 `json:"queue_len"`
}

// FilterSnap groups the live copy states of one logical filter.
type FilterSnap struct {
	Name   string     `json:"name"`
	Copies []CopySnap `json:"copies"`

	// Span nanoseconds summed across copies, keyed by the Span* constants.
	// Timers are cumulative, so deltas between snapshots are valid.
	Spans map[string]int64 `json:"spans,omitempty"`
}

// Snapshot is a consistent-enough mid-run view of pipeline progress: each
// field is individually race-free (atomic), though the set is not a global
// atomic cut — good enough for rate estimation, which is all the
// controller does with it.
type Snapshot struct {
	WallNS  int64        `json:"wall_ns"`
	Filters []FilterSnap `json:"filters"`

	// CacheHits/CacheMisses mirror the block-cache counters when a cached
	// backend is attached; both zero otherwise.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

// TotalMsgsOut sums MsgsOut across every copy of every filter — the
// controller's progress measure (work completed, wherever it happens).
func (s *Snapshot) TotalMsgsOut() int64 {
	var n int64
	for _, f := range s.Filters {
		for _, c := range f.Copies {
			n += c.MsgsOut
		}
	}
	return n
}

// TuningDecision records one controller action: at AtNS into the run, Knob
// moved From→To because of Trigger (the rule that fired) with the metric
// value that justified it.
type TuningDecision struct {
	AtNS    int64   `json:"at_ns"`
	Knob    string  `json:"knob"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	Trigger string  `json:"trigger"`
	Metric  float64 `json:"metric"`
}

// TuningReport is the RunReport section describing what the autotune
// controller did during the run.
type TuningReport struct {
	Seed       int64            `json:"seed"`
	IntervalNS int64            `json:"interval_ns"`
	Decisions  []TuningDecision `json:"decisions"`

	// Final knob values when the run ended, keyed by knob name.
	Final map[string]int `json:"final,omitempty"`
}

func (t *TuningReport) render(b *strings.Builder) {
	fmt.Fprintf(b, "tuning: seed=%d interval=%.0fms decisions=%d\n", t.Seed, ms(t.IntervalNS), len(t.Decisions))
	for _, d := range t.Decisions {
		fmt.Fprintf(b, "  %10.1fms  %-12s %3d -> %-3d  %s (%.3f)\n",
			ms(d.AtNS), d.Knob, d.From, d.To, d.Trigger, d.Metric)
	}
	if len(t.Final) > 0 {
		keys := make([]string, 0, len(t.Final))
		for k := range t.Final {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(b, "  final:")
		for _, k := range keys {
			fmt.Fprintf(b, " %s=%d", k, t.Final[k])
		}
		fmt.Fprintf(b, "\n")
	}
}

// Live snapshots.
//
// RunReport is built once, after a run finishes. Live progress reporting
// instead needs a consistent mid-run view, sampled every tick without
// perturbing the copies it observes. Snapshot is that view: every field is
// read from an atomic the hot path already maintains (span timers, service
// counters, the blocked/stalled mirrors), so taking one costs a few dozen
// atomic loads and no locks shared with filter goroutines.
//
// The contract progress consumers depend on (pinned by the snapshot-delta
// tests in internal/filter):
//
//   - Counters and span nanoseconds are monotonic non-decreasing between
//     two snapshots of the same run.
//   - Per-copy identity is stable: filter order follows the spec order of
//     the graph and copy index never changes, so delta(snap2, snap1) can be
//     computed position-wise.
package metrics

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
// atomic cut — good enough for progress rates, which is all it is used for.
type Snapshot struct {
	WallNS  int64        `json:"wall_ns"`
	Filters []FilterSnap `json:"filters"`
}

// TotalMsgsOut sums MsgsOut across every copy of every filter — the
// progress measure (work completed, wherever it happens).
func (s *Snapshot) TotalMsgsOut() int64 {
	var n int64
	for _, f := range s.Filters {
		for _, c := range f.Copies {
			n += c.MsgsOut
		}
	}
	return n
}

// Compact progress views.
//
// A run report carries every copy of every filter; a job-status API does
// not need that resolution. Progress collapses one report, usually one
// built mid-run, into the handful of monotonic totals a client polls for:
// elapsed wall time, buffers produced, and the busy/blocked/stalled time
// split that says where the pipeline is spending its life. The serve
// daemon attaches one Progress per job status response and event-stream
// tick.

package metrics

// Progress is the compact, JSON-stable summary of one run report. All
// counters are cumulative since the run started, so deltas between two
// Progress values of the same run are valid rates.
type Progress struct {
	WallNS int64 `json:"wall_ns"`
	// MsgsOut sums buffers produced across every copy of every filter.
	MsgsOut int64 `json:"msgs_out"`
	// BusyNS/BlockedNS/StalledNS sum compute service time, input wait and
	// downstream-credit wait across all copies.
	BusyNS    int64 `json:"busy_ns"`
	BlockedNS int64 `json:"blocked_ns"`
	StalledNS int64 `json:"stalled_ns"`
}

// Progress collapses the report into its compact summary. Safe on a nil
// receiver (returns the zero Progress).
func (r *RunReport) Progress() Progress {
	if r == nil {
		return Progress{}
	}
	p := Progress{WallNS: r.ElapsedNS}
	for _, f := range r.Filters {
		p.MsgsOut += f.MsgsOut
		p.BusyNS += f.BusyNS
		p.BlockedNS += f.BlockedRecvNS
		p.StalledNS += f.StalledSendNS
	}
	return p
}

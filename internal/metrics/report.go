package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanStat is the JSON-ready snapshot of a Timer.
type SpanStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
}

// Total returns the accumulated duration.
func (s SpanStat) Total() time.Duration { return time.Duration(s.TotalNS) }

// add folds another snapshot into this one (for per-filter aggregates).
func (s SpanStat) add(o SpanStat) SpanStat {
	s.Count += o.Count
	s.TotalNS += o.TotalNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	return s
}

// CopyReport is one filter copy's row of the per-filter table. BusyNS is
// the time the copy spent executing filter code; BlockedRecvNS is the time
// blocked on empty inputs (upstream starvation); StalledSendNS is the time
// blocked on full downstream queues (backpressure). The three together
// cover the copy's lifetime, so per copy they sum to roughly the engine's
// elapsed time.
type CopyReport struct {
	Copy          int                 `json:"copy"`
	Node          int                 `json:"node"`
	BusyNS        int64               `json:"busy_ns"`
	BlockedRecvNS int64               `json:"blocked_recv_ns"`
	StalledSendNS int64               `json:"stalled_send_ns"`
	MsgsIn        int64               `json:"msgs_in"`
	MsgsOut       int64               `json:"msgs_out"`
	BytesIn       int64               `json:"bytes_in"`
	BytesOut      int64               `json:"bytes_out"`
	Spans         map[string]SpanStat `json:"spans,omitempty"`
	PoolHits      int64               `json:"pool_hits,omitempty"`
	PoolMisses    int64               `json:"pool_misses,omitempty"`
	// A reader copy's read-ahead depth (windows in flight): where it ended,
	// the peak it reached, and the limit it ran under — the fixed depth, the
	// copy's share of the run's budget when self-sized, or its gate's quota.
	// Peak against limit says why read-wait is what it is.
	ReadAheadDepth int64 `json:"readahead_depth,omitempty"`
	ReadAheadPeak  int64 `json:"readahead_peak,omitempty"`
	ReadAheadLimit int64 `json:"readahead_limit,omitempty"`
	// Failed marks a copy whose failure the engine tolerated via failover;
	// Failure records the tolerated error.
	Failed  bool   `json:"failed,omitempty"`
	Failure string `json:"failure,omitempty"`
}

// FilterReport is one logical filter's table entry: per-copy rows plus
// aggregates across copies.
type FilterReport struct {
	Name          string              `json:"name"`
	Copies        []CopyReport        `json:"copies"`
	BusyNS        int64               `json:"busy_ns"`
	BlockedRecvNS int64               `json:"blocked_recv_ns"`
	StalledSendNS int64               `json:"stalled_send_ns"`
	MsgsIn        int64               `json:"msgs_in"`
	MsgsOut       int64               `json:"msgs_out"`
	BytesIn       int64               `json:"bytes_in"`
	BytesOut      int64               `json:"bytes_out"`
	Spans         map[string]SpanStat `json:"spans,omitempty"`
	PoolHits      int64               `json:"pool_hits,omitempty"`
	PoolMisses    int64               `json:"pool_misses,omitempty"`
	// CopyFailures counts copies whose failure was tolerated by failover
	// (aggregated by Finalize); Redelivered counts buffers requeued from dead
	// copies to surviving siblings (engine-provided, preserved by Finalize).
	CopyFailures int   `json:"copy_failures,omitempty"`
	Redelivered  int64 `json:"redelivered,omitempty"`
}

// StreamReport is one stream bundle's (connection's) table entry.
// SendWaitNS is producer time spent inside Send on this stream: the time
// spent waiting for queue credit. On the local and TCP engines a credit is a
// payload byte: BudgetBytes is what one consumer copy's input queue may hold,
// QueuedBytesMax the most any of this stream's consumer copies ever held (from
// all its inbound streams together), BufferBytesMax the largest single buffer
// sent — which may cross an empty queue even when it exceeds the budget.
type StreamReport struct {
	From       string `json:"from"`
	FromPort   string `json:"from_port"`
	To         string `json:"to"`
	ToPort     string `json:"to_port"`
	Policy     string `json:"policy"`
	Buffers    int64  `json:"buffers"`
	Bytes      int64  `json:"bytes"`
	QueueMax   int64  `json:"queue_max"`
	SendWaits  int64  `json:"send_waits"`
	SendWaitNS int64  `json:"send_wait_ns"`

	QueuedBytesMax int64 `json:"queued_bytes_max,omitempty"`
	BudgetBytes    int64 `json:"budget_bytes,omitempty"`
	BufferBytesMax int64 `json:"buffer_bytes_max,omitempty"`
}

// ConnReport is one ordered node pair's TCP connection entry: envelopes and
// wire bytes in each direction plus sender encode+write and receiver
// read+decode time (the latter includes time waiting for data to arrive).
// A row with FromNode -1 counts only the RecvErrors of sockets into ToNode
// that broke before a whole frame named their sender.
type ConnReport struct {
	FromNode     int   `json:"from_node"`
	ToNode       int   `json:"to_node"`
	MsgsOut      int64 `json:"msgs_out"`
	WireBytesOut int64 `json:"wire_bytes_out"`
	SendNS       int64 `json:"send_ns"`
	MsgsIn       int64 `json:"msgs_in"`
	WireBytesIn  int64 `json:"wire_bytes_in"`
	RecvNS       int64 `json:"recv_ns"`
	// Fault-tolerance counters, populated when the links retry: dial
	// retries and envelope retransmissions, successful reconnects,
	// duplicate envelopes dropped by the sequence filter, and receive-side
	// decode failures recovered by retransmission.
	Retries     int64 `json:"retries,omitempty"`
	Redials     int64 `json:"redials,omitempty"`
	DupsDropped int64 `json:"dups_dropped,omitempty"`
	RecvErrors  int64 `json:"recv_errors,omitempty"`
	// Link resilience counters, populated when the retry policy carries a
	// pair breaker or budget: breaker state/trips/probes and shared-budget
	// retries spent/denied for this ordered node pair.
	BreakerState  string `json:"breaker_state,omitempty"`
	BreakerTrips  int64  `json:"breaker_trips,omitempty"`
	BreakerProbes int64  `json:"breaker_probes,omitempty"`
	BudgetSpent   int64  `json:"budget_spent,omitempty"`
	BudgetDenied  int64  `json:"budget_denied,omitempty"`
}

// BackendReport is one storage backend's I/O table entry: object opens,
// positioned reads and bytes fetched from the backing store.
// Populated from dataset.Stats after the run (the dataset layer stays free
// of metrics imports and vice versa).
type BackendReport struct {
	Scheme    string `json:"scheme"`
	URL       string `json:"url"`
	Opens     int64  `json:"opens"`
	Reads     int64  `json:"reads"`
	ReadBytes int64  `json:"read_bytes"`
	// Resilience counters, populated when the backend carries a breaker,
	// retry budget, hedger or serve-stale layer.
	BreakerState      string `json:"breaker_state,omitempty"`
	BreakerTrips      int64  `json:"breaker_trips,omitempty"`
	BreakerProbes     int64  `json:"breaker_probes,omitempty"`
	RetryBudgetSpent  int64  `json:"retry_budget_spent,omitempty"`
	RetryBudgetDenied int64  `json:"retry_budget_denied,omitempty"`
	HedgedReads       int64  `json:"hedged_reads,omitempty"`
	HedgeWins         int64  `json:"hedge_wins,omitempty"`
	StaleReads        int64  `json:"stale_reads,omitempty"`
}

// PathEntry is one filter's row of the critical-path summary: the mean
// per-copy time split into busy/blocked/stalled shares of the elapsed run.
// The filter with the largest busy share is the pipeline's bottleneck — the
// stage whose copies the paper's Figs. 7–9 would replicate next.
type PathEntry struct {
	Filter     string  `json:"filter"`
	Copies     int     `json:"copies"`
	MeanBusyNS int64   `json:"mean_busy_ns"`
	BusyShare  float64 `json:"busy_share"`
	RecvShare  float64 `json:"recv_share"`
	SendShare  float64 `json:"send_share"`
}

// Summary is the pipeline-wide critical-path summary.
type Summary struct {
	Bottleneck string      `json:"bottleneck"`
	Entries    []PathEntry `json:"entries"`
}

// RunReport is the structured result of one engine run: per-filter and
// per-stream tables, the TCP network table when applicable, and the
// critical-path summary. It is JSON-serializable as-is; durations are
// nanoseconds. Under the simulated-cluster engine, engine-measured fields
// (busy/blocked/stalled, stream waits, elapsed) are virtual time while
// filter-recorded spans remain host wall time.
type RunReport struct {
	Engine    string          `json:"engine"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Filters   []FilterReport  `json:"filters"`
	Streams   []StreamReport  `json:"streams,omitempty"`
	Network   []ConnReport    `json:"network,omitempty"`
	Backends  []BackendReport `json:"backends,omitempty"`
	Summary   Summary         `json:"summary"`
}

// Elapsed returns the run's end-to-end time.
func (r *RunReport) Elapsed() time.Duration { return time.Duration(r.ElapsedNS) }

// Filter returns the named filter's table entry, or nil.
func (r *RunReport) Filter(name string) *FilterReport {
	for i := range r.Filters {
		if r.Filters[i].Name == name {
			return &r.Filters[i]
		}
	}
	return nil
}

// Span returns the named filter's aggregated span across all copies.
func (r *RunReport) Span(filter, span string) SpanStat {
	f := r.Filter(filter)
	if f == nil {
		return SpanStat{}
	}
	return f.Spans[span]
}

// Finalize computes the per-filter aggregates and the critical-path
// summary. Engines call it once after populating the per-copy rows.
func (r *RunReport) Finalize() {
	elapsed := float64(r.ElapsedNS)
	r.Summary = Summary{}
	for i := range r.Filters {
		f := &r.Filters[i]
		f.BusyNS, f.BlockedRecvNS, f.StalledSendNS = 0, 0, 0
		f.MsgsIn, f.MsgsOut, f.BytesIn, f.BytesOut = 0, 0, 0, 0
		f.PoolHits, f.PoolMisses = 0, 0
		f.CopyFailures = 0 // Redelivered is engine-provided, not re-derived
		f.Spans = nil
		for _, c := range f.Copies {
			f.BusyNS += c.BusyNS
			f.BlockedRecvNS += c.BlockedRecvNS
			f.StalledSendNS += c.StalledSendNS
			f.MsgsIn += c.MsgsIn
			f.MsgsOut += c.MsgsOut
			f.BytesIn += c.BytesIn
			f.BytesOut += c.BytesOut
			f.PoolHits += c.PoolHits
			f.PoolMisses += c.PoolMisses
			if c.Failed {
				f.CopyFailures++
			}
			for name, st := range c.Spans {
				if f.Spans == nil {
					f.Spans = map[string]SpanStat{}
				}
				f.Spans[name] = f.Spans[name].add(st)
			}
		}
		n := len(f.Copies)
		if n == 0 {
			continue
		}
		e := PathEntry{Filter: f.Name, Copies: n, MeanBusyNS: f.BusyNS / int64(n)}
		if elapsed > 0 {
			e.BusyShare = float64(f.BusyNS) / float64(n) / elapsed
			e.RecvShare = float64(f.BlockedRecvNS) / float64(n) / elapsed
			e.SendShare = float64(f.StalledSendNS) / float64(n) / elapsed
		}
		r.Summary.Entries = append(r.Summary.Entries, e)
	}
	sort.SliceStable(r.Summary.Entries, func(i, j int) bool {
		return r.Summary.Entries[i].MeanBusyNS > r.Summary.Entries[j].MeanBusyNS
	})
	if len(r.Summary.Entries) > 0 {
		r.Summary.Bottleneck = r.Summary.Entries[0].Filter
	}
}

// Validate reports whether the report carries usable data: a positive
// elapsed time, at least one filter, and nonzero total busy time. The CLIs
// and the CI smoke check use it to fail on empty reports.
func (r *RunReport) Validate() error {
	if r == nil {
		return fmt.Errorf("metrics: nil report")
	}
	if r.ElapsedNS <= 0 {
		return fmt.Errorf("metrics: report has non-positive elapsed time %d", r.ElapsedNS)
	}
	if len(r.Filters) == 0 {
		return fmt.Errorf("metrics: report has no filters")
	}
	var busy int64
	for i := range r.Filters {
		busy += r.Filters[i].BusyNS
		for _, c := range r.Filters[i].Copies {
			if c.ReadAheadDepth < 0 || c.ReadAheadDepth > c.ReadAheadPeak || c.ReadAheadPeak > c.ReadAheadLimit {
				return fmt.Errorf("metrics: %s copy %d read-ahead depth %d, peak %d outside its limit %d",
					r.Filters[i].Name, c.Copy, c.ReadAheadDepth, c.ReadAheadPeak, c.ReadAheadLimit)
			}
		}
	}
	if busy <= 0 {
		return fmt.Errorf("metrics: report has zero total busy time")
	}
	// A queue holds its budget, or one buffer larger than it alone; the buffer
	// may have come in on any stream into the same filter.
	largest := map[string]int64{}
	for _, s := range r.Streams {
		largest[s.To] = max(largest[s.To], s.BufferBytesMax)
	}
	for _, s := range r.Streams {
		if s.BudgetBytes > 0 && s.QueuedBytesMax > s.BudgetBytes+largest[s.To] {
			return fmt.Errorf("metrics: stream %s.%s->%s.%s queued %d bytes, over its budget %d plus the largest buffer %d",
				s.From, s.FromPort, s.To, s.ToPort, s.QueuedBytesMax, s.BudgetBytes, largest[s.To])
		}
	}
	return nil
}

// JSON renders the report as indented JSON.
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// String renders the report as aligned human-readable tables.
func (r *RunReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report (%s engine): elapsed %v\n", r.Engine, time.Duration(r.ElapsedNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "filters:\n")
	fmt.Fprintf(&b, "  %-6s %-6s %12s %12s %12s %10s %10s %12s %12s\n",
		"name", "copies", "busy-ms", "recv-ms", "stall-ms", "msgs-in", "msgs-out", "bytes-in", "bytes-out")
	for i := range r.Filters {
		f := &r.Filters[i]
		fmt.Fprintf(&b, "  %-6s %-6d %12.2f %12.2f %12.2f %10d %10d %12d %12d\n",
			f.Name, len(f.Copies), ms(f.BusyNS), ms(f.BlockedRecvNS), ms(f.StalledSendNS),
			f.MsgsIn, f.MsgsOut, f.BytesIn, f.BytesOut)
		names := make([]string, 0, len(f.Spans))
		for name := range f.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := f.Spans[name]
			fmt.Fprintf(&b, "    span %-9s count=%-7d total=%-10.2fms max=%.3fms\n",
				name, st.Count, ms(st.TotalNS), ms(st.MaxNS))
		}
		for _, c := range f.Copies {
			if c.ReadAheadLimit > 0 {
				fmt.Fprintf(&b, "    read-ahead copy %d: depth=%d peak=%d limit=%d\n", c.Copy, c.ReadAheadDepth, c.ReadAheadPeak, c.ReadAheadLimit)
			}
		}
		if f.PoolHits+f.PoolMisses > 0 {
			fmt.Fprintf(&b, "    pool hit=%d miss=%d (%.1f%% hit)\n", f.PoolHits, f.PoolMisses,
				100*float64(f.PoolHits)/float64(f.PoolHits+f.PoolMisses))
		}
		if f.CopyFailures > 0 || f.Redelivered > 0 {
			fmt.Fprintf(&b, "    failover failed-copies=%d redelivered=%d\n", f.CopyFailures, f.Redelivered)
		}
	}
	if len(r.Streams) > 0 {
		fmt.Fprintf(&b, "streams:\n")
		fmt.Fprintf(&b, "  %-22s %-14s %8s %12s %8s %12s %12s %12s\n", "stream", "policy", "buffers", "bytes", "queue<=", "queued-B<=", "budget-B", "send-wait-ms")
		for _, s := range r.Streams {
			fmt.Fprintf(&b, "  %-22s %-14s %8d %12d %8d %12d %12d %12.2f\n",
				s.From+"."+s.FromPort+"->"+s.To+"."+s.ToPort, s.Policy, s.Buffers, s.Bytes, s.QueueMax,
				s.QueuedBytesMax, s.BudgetBytes, ms(s.SendWaitNS))
		}
	}
	if len(r.Network) > 0 {
		fmt.Fprintf(&b, "network (tcp):\n")
		fmt.Fprintf(&b, "  %-10s %8s %14s %12s %8s %14s %12s\n",
			"link", "msgs->", "wire-bytes->", "send-ms", "msgs<-", "wire-bytes<-", "recv-ms")
		for _, c := range r.Network {
			fmt.Fprintf(&b, "  %3d -> %-3d %8d %14d %12.2f %8d %14d %12.2f\n",
				c.FromNode, c.ToNode, c.MsgsOut, c.WireBytesOut, ms(c.SendNS), c.MsgsIn, c.WireBytesIn, ms(c.RecvNS))
			if c.Retries+c.Redials+c.DupsDropped+c.RecvErrors > 0 {
				fmt.Fprintf(&b, "    retries=%d redials=%d dups-dropped=%d recv-errors=%d\n",
					c.Retries, c.Redials, c.DupsDropped, c.RecvErrors)
			}
			if c.BreakerState != "" || c.BudgetSpent+c.BudgetDenied > 0 {
				fmt.Fprintf(&b, "    breaker=%s trips=%d probes=%d budget-spent=%d budget-denied=%d\n",
					c.BreakerState, c.BreakerTrips, c.BreakerProbes, c.BudgetSpent, c.BudgetDenied)
			}
		}
	}
	if len(r.Backends) > 0 {
		fmt.Fprintf(&b, "backends:\n")
		fmt.Fprintf(&b, "  %-8s %8s %10s %14s\n", "scheme", "opens", "reads", "read-bytes")
		for _, be := range r.Backends {
			fmt.Fprintf(&b, "  %-8s %8d %10d %14d\n", be.Scheme, be.Opens, be.Reads, be.ReadBytes)
			fmt.Fprintf(&b, "    url %s\n", be.URL)
			if be.BreakerState != "" || be.HedgedReads+be.RetryBudgetSpent+be.RetryBudgetDenied+be.StaleReads > 0 {
				fmt.Fprintf(&b, "    resilience breaker=%s trips=%d probes=%d budget-spent=%d budget-denied=%d hedged=%d hedge-wins=%d stale-reads=%d\n",
					be.BreakerState, be.BreakerTrips, be.BreakerProbes,
					be.RetryBudgetSpent, be.RetryBudgetDenied, be.HedgedReads, be.HedgeWins, be.StaleReads)
			}
		}
	}
	if len(r.Summary.Entries) > 0 {
		fmt.Fprintf(&b, "critical path (per-copy mean shares of elapsed):\n")
		for _, e := range r.Summary.Entries {
			mark := "  "
			if e.Filter == r.Summary.Bottleneck {
				mark = "* "
			}
			fmt.Fprintf(&b, "  %s%-6s copies=%-3d busy=%5.1f%% recv-wait=%5.1f%% send-wait=%5.1f%%\n",
				mark, e.Filter, e.Copies, 100*e.BusyShare, 100*e.RecvShare, 100*e.SendShare)
		}
	}
	return b.String()
}

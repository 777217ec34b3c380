// Package metrics is the observability layer of the filter-stream runtime:
// cheap atomic counters, high-water gauges and wall-clock span timers that
// the engines and filters update on the hot path, one Ledger of engine
// counters per filter copy, and the structured RunReport (report.go) every
// engine run returns.
//
// The paper's entire evaluation (§6, Figs. 6–12) is built from per-filter
// timing decompositions — read time vs. chunk assembly vs. texture compute
// vs. stream transfer. This package makes that decomposition a first-class
// output of every run instead of something reconstructed with ad-hoc
// timers.
//
// Concurrency: all primitives are safe for concurrent use. A filter copy's
// Ledger and Copy set are written by that copy's goroutine (and its engine)
// only, but the scheduler, the watchdog and the mid-run report read them
// while it runs, and pool counters may be bumped from kernel worker
// goroutines, so everything stays atomic.
package metrics

import (
	"sync/atomic"
	"time"
)

// Counter is a cheap atomic event counter.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// MaxGauge tracks the high-water mark of a sampled quantity (queue depths).
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the gauge to v if v exceeds the current maximum.
func (g *MaxGauge) Observe(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (g *MaxGauge) Load() int64 { return g.v.Load() }

// Timer accumulates durations: total, count and per-event maximum. Under
// the local and TCP engines durations are host wall time; under the
// simulated cluster the engine feeds it virtual time for stream waits,
// while filter-recorded spans remain host wall time (see RunReport docs).
type Timer struct{ count, ns, max atomic.Int64 }

// Add records one measured duration.
func (t *Timer) Add(d time.Duration) {
	t.count.Add(1)
	t.ns.Add(int64(d))
	for {
		cur := t.max.Load()
		if int64(d) <= cur || t.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Start opens a wall-clock span ending at Span.End.
func (t *Timer) Start() Span { return Span{t: t, start: time.Now()} }

// Count returns the number of durations recorded so far.
func (t *Timer) Count() int64 { return t.count.Load() }

// Stat snapshots the timer into its JSON-ready form.
func (t *Timer) Stat() SpanStat {
	return SpanStat{Count: t.count.Load(), TotalNS: t.ns.Load(), MaxNS: t.max.Load()}
}

// Span is one open wall-clock measurement. The zero Span is a no-op, so a
// call site that opens a span only on some paths ends it without a branch.
type Span struct {
	t     *Timer
	start time.Time
}

// End closes the span and records its duration.
func (s Span) End() {
	if s.t != nil {
		s.t.Add(time.Since(s.start))
	}
}

// Span names used by the filters; the RunReport spans tables are keyed by
// these.
const (
	SpanRead     = "read"      // slice read + decode (raw or DICOM) + requantization (RFR, SRC)
	SpanReadWait = "read-wait" // emit loop waiting on the read-ahead stage (RFR)
	SpanAssemble = "assemble"  // chunk/image stitching (IIC, HIC)
	SpanCompute  = "compute"   // texture kernel time (HMP, HCC, HPC)
	SpanEmit     = "emit"      // Send/SendTo call time, including stream backpressure
	SpanWrite    = "write"     // output persistence (USO records, JPEG encode, Collector)
)

// Ledger is one filter copy's engine counters, kept on every run: the time
// the copy spent busy in filter code, blocked on empty inputs and stalled on
// full outputs (nanoseconds; virtual under the simulated cluster), the
// messages and payload bytes it took in and sent out, and the failure
// failover tolerated. The engine writes each counter once per event, and
// everyone else reads the same set: the demand-driven scheduler, the stall
// watchdog, the mid-run probe and the run report.
type Ledger struct {
	Busy, BlockedRecv, StalledSend     Counter
	MsgsIn, MsgsOut, BytesIn, BytesOut Counter
	failure                            atomic.Pointer[string]
	// Met is what the filter records itself.
	Met Copy
}

// Fail records the copy's failure, tolerated by failover.
func (l *Ledger) Fail(err error) {
	msg := err.Error()
	l.failure.Store(&msg)
}

// Progress is the copy's heartbeat for the stall watchdog: it grows with
// every buffer accepted or delivered and every span the filter closes.
func (l *Ledger) Progress() int64 {
	return l.MsgsIn.Load() + l.MsgsOut.Load() + l.Met.Progress()
}

// Row is the copy's row of the run report as its counters stand now.
func (l *Ledger) Row(copy, node int) CopyReport {
	cr := CopyReport{
		Copy: copy, Node: node,
		BusyNS: l.Busy.Load(), BlockedRecvNS: l.BlockedRecv.Load(), StalledSendNS: l.StalledSend.Load(),
		MsgsIn: l.MsgsIn.Load(), MsgsOut: l.MsgsOut.Load(), BytesIn: l.BytesIn.Load(), BytesOut: l.BytesOut.Load(),
	}
	if f := l.failure.Load(); f != nil {
		cr.Failed, cr.Failure = true, *f
	}
	l.Met.Fill(&cr)
	return cr
}

// Copy collects one filter copy's instrumented activity beyond what the
// engine measures on its own in its Ledger. Every run keeps one per copy,
// so a filter's ctx.Metrics() is never nil.
type Copy struct {
	Read, ReadWait, Assemble, Compute, Emit, Write Timer
	PoolHit, PoolMiss                              Counter
	// A reader copy's read-ahead depth: where it ended, the greatest it
	// reached, and the limit it was given (set once, as the copy finishes).
	ReadAheadDepth, ReadAheadPeak, ReadAheadLimit MaxGauge
}

// ReadAhead records a reader copy's final, peak and limiting read-ahead
// depth.
func (c *Copy) ReadAhead(depth, peak, limit int) {
	c.ReadAheadDepth.Observe(int64(depth))
	c.ReadAheadPeak.Observe(int64(peak))
	c.ReadAheadLimit.Observe(int64(limit))
}

// Fill copies what the filter recorded into its row of the run report.
func (c *Copy) Fill(cr *CopyReport) {
	cr.Spans = c.Spans()
	cr.PoolHits, cr.PoolMisses = c.PoolHit.Load(), c.PoolMiss.Load()
	cr.ReadAheadDepth, cr.ReadAheadPeak, cr.ReadAheadLimit = c.ReadAheadDepth.Load(), c.ReadAheadPeak.Load(), c.ReadAheadLimit.Load()
}

// StartRead opens a read span.
func (c *Copy) StartRead() Span {
	return c.Read.Start()
}

// StartReadWait opens a read-wait span — the time a reader's emit loop
// spends blocked on the read-ahead stage.
func (c *Copy) StartReadWait() Span {
	return c.ReadWait.Start()
}

// StartAssemble opens an assemble span.
func (c *Copy) StartAssemble() Span {
	return c.Assemble.Start()
}

// StartCompute opens a compute span.
func (c *Copy) StartCompute() Span {
	return c.Compute.Start()
}

// StartEmit opens an emit span.
func (c *Copy) StartEmit() Span {
	return c.Emit.Start()
}

// StartWrite opens a write span.
func (c *Copy) StartWrite() Span {
	return c.Write.Start()
}

// Pool records one buffer-pool lease outcome.
func (c *Copy) Pool(hit bool) {
	if hit {
		c.PoolHit.Inc()
	} else {
		c.PoolMiss.Inc()
	}
}

// Progress returns a monotone heartbeat derived from the span timers and
// pool counters: it grows whenever the copy completes any instrumented
// activity. It is the filter's share of Ledger.Progress.
func (c *Copy) Progress() int64 {
	return c.Read.Count() + c.ReadWait.Count() + c.Assemble.Count() +
		c.Compute.Count() + c.Emit.Count() + c.Write.Count() +
		c.PoolHit.Load() + c.PoolMiss.Load()
}

// Spans snapshots the non-empty span timers, keyed by span name.
func (c *Copy) Spans() map[string]SpanStat {
	out := map[string]SpanStat{}
	for name, t := range map[string]*Timer{
		SpanRead: &c.Read, SpanReadWait: &c.ReadWait, SpanAssemble: &c.Assemble,
		SpanCompute: &c.Compute, SpanEmit: &c.Emit, SpanWrite: &c.Write,
	} {
		if st := t.Stat(); st.Count > 0 {
			out[name] = st
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Stream collects one connection's (stream bundle's) traffic: buffer and
// byte counts, the consumer-queue high-water mark, and the time producers
// spent inside Send on this stream — which, under demand-driven credit
// flow control, is the time spent waiting for queue credit.
type Stream struct {
	Buffers, Bytes Counter
	QueueMax       MaxGauge
	BufferMax      MaxGauge // largest single buffer, payload bytes
	SendWait       Timer
}

// ObserveSend records one delivered buffer: its payload size, the
// producer-side wait, and the consumer queue depth observed after the
// delivery.
func (s *Stream) ObserveSend(bytes int64, wait time.Duration, depth int64) {
	s.Buffers.Inc()
	s.Bytes.Add(bytes)
	s.BufferMax.Observe(bytes)
	s.QueueMax.Observe(depth)
	s.SendWait.Add(wait)
}

// Conn collects one ordered node-pair TCP connection's activity: envelopes
// and on-the-wire bytes in each direction, encode+write time on the sender
// and read+decode time on the receiver.
type Conn struct {
	MsgsOut, WireBytesOut Counter
	Send                  Timer
	MsgsIn, WireBytesIn   Counter
	Recv                  Timer

	// Fault-tolerance counters, active when the transport's links retry:
	// dial retries and envelope retransmissions, successful reconnects,
	// duplicate envelopes dropped by the receiver's sequence filter, and
	// receive-side decode failures recovered by retransmission.
	Retries, Redials        Counter
	DupsDropped, RecvErrors Counter
}

// Package metrics is the observability layer of the filter-stream runtime:
// cheap atomic counters, high-water gauges and wall-clock span timers that
// the engines and filters update on the hot path, plus the structured
// RunReport (report.go) every engine assembles at the end of a run.
//
// The paper's entire evaluation (§6, Figs. 6–12) is built from per-filter
// timing decompositions — read time vs. chunk assembly vs. texture compute
// vs. stream transfer. This package makes that decomposition a first-class
// output of every run instead of something reconstructed with ad-hoc
// timers.
//
// Concurrency: all primitives are safe for concurrent use. A filter copy's
// Copy set is written by that copy's goroutine only, but the report builder
// reads it after the run, and pool counters may be bumped from kernel
// worker goroutines, so everything stays atomic.
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

// Span is one open wall-clock measurement. The zero Span is a no-op, which
// is how nil metric sets disable recording without branches at call sites.
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
	SpanRead     = "read"      // disk/DICOM read + requantization (RFR, DFR, SRC)
	SpanReadWait = "read-wait" // emit loop waiting on the read-ahead stage (RFR, DFR)
	SpanAssemble = "assemble"  // chunk/image stitching (IIC, HIC)
	SpanCompute  = "compute"   // texture kernel time (HMP, HCC, HPC)
	SpanEmit     = "emit"      // Send/SendTo call time, including stream backpressure
	SpanWrite    = "write"     // output persistence (USO records, JPEG encode, Collector)
)

// Copy collects one filter copy's instrumented activity beyond what the
// engine measures on its own (busy/blocked/stalled, messages, bytes). All
// methods are nil-receiver safe: a nil *Copy records nothing, so filters
// run unchanged when metrics are disabled.
type Copy struct {
	Read, ReadWait, Assemble, Compute, Emit, Write Timer
	PoolHit, PoolMiss                              Counter
	// A reader copy's read-ahead depth: where it ended, the greatest it
	// reached, and the limit it was given (set once, as the copy finishes).
	ReadAheadDepth, ReadAheadPeak, ReadAheadLimit MaxGauge
}

// ReadAhead records a reader copy's final, peak and limiting read-ahead
// depth (no-op on nil receiver).
func (c *Copy) ReadAhead(depth, peak, limit int) {
	if c == nil {
		return
	}
	c.ReadAheadDepth.Observe(int64(depth))
	c.ReadAheadPeak.Observe(int64(peak))
	c.ReadAheadLimit.Observe(int64(limit))
}

// Fill copies what the filter recorded into its row of the run report
// (no-op on nil receiver).
func (c *Copy) Fill(cr *CopyReport) {
	if c == nil {
		return
	}
	cr.Spans = c.Spans()
	cr.PoolHits, cr.PoolMisses = c.PoolHit.Load(), c.PoolMiss.Load()
	cr.ReadAheadDepth, cr.ReadAheadPeak, cr.ReadAheadLimit = c.ReadAheadDepth.Load(), c.ReadAheadPeak.Load(), c.ReadAheadLimit.Load()
}

// StartRead opens a read span (no-op on nil receiver).
func (c *Copy) StartRead() Span {
	if c == nil {
		return Span{}
	}
	return c.Read.Start()
}

// StartReadWait opens a read-wait span — the time a reader's emit loop
// spends blocked on the read-ahead stage (no-op on nil receiver).
func (c *Copy) StartReadWait() Span {
	if c == nil {
		return Span{}
	}
	return c.ReadWait.Start()
}

// StartAssemble opens an assemble span (no-op on nil receiver).
func (c *Copy) StartAssemble() Span {
	if c == nil {
		return Span{}
	}
	return c.Assemble.Start()
}

// StartCompute opens a compute span (no-op on nil receiver).
func (c *Copy) StartCompute() Span {
	if c == nil {
		return Span{}
	}
	return c.Compute.Start()
}

// StartEmit opens an emit span (no-op on nil receiver).
func (c *Copy) StartEmit() Span {
	if c == nil {
		return Span{}
	}
	return c.Emit.Start()
}

// StartWrite opens a write span (no-op on nil receiver).
func (c *Copy) StartWrite() Span {
	if c == nil {
		return Span{}
	}
	return c.Write.Start()
}

// Pool records one buffer-pool lease outcome (no-op on nil receiver).
func (c *Copy) Pool(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.PoolHit.Inc()
	} else {
		c.PoolMiss.Inc()
	}
}

// Progress returns a monotone heartbeat derived from the span timers and
// pool counters: it grows whenever the copy completes any instrumented
// activity. The stall watchdog samples it (together with the engine's own
// message counters) to distinguish a slow-but-working filter from a wedged
// one. Nil-receiver safe: a nil *Copy reports 0, leaving the engine
// counters as the only heartbeat when metrics are disabled.
func (c *Copy) Progress() int64 {
	if c == nil {
		return 0
	}
	return c.Read.Count() + c.ReadWait.Count() + c.Assemble.Count() +
		c.Compute.Count() + c.Emit.Count() + c.Write.Count() +
		c.PoolHit.Load() + c.PoolMiss.Load()
}

// Spans snapshots the non-empty span timers, keyed by span name.
func (c *Copy) Spans() map[string]SpanStat {
	if c == nil {
		return nil
	}
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
// delivery. Nil-receiver safe.
func (s *Stream) ObserveSend(bytes int64, wait time.Duration, depth int64) {
	if s == nil {
		return
	}
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

	// Fault-tolerance counters, active when the transport runs with a
	// RetryPolicy: envelope retransmissions, successful reconnects, duplicate
	// envelopes dropped by the receiver's sequence filter, and receive-side
	// decode failures recovered by retransmission.
	Retries, Redials        Counter
	DupsDropped, RecvErrors Counter
}

package filter

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/sem"
)

// Options configures an in-process engine run.
type Options struct {
	// QueueBytes bounds each filter copy's input queue (stream
	// backpressure) in payload bytes, as Payload.SizeBytes reports them: a
	// producer blocks while the buffers queued at its consumer, plus its own,
	// exceed it. A buffer larger than the whole budget crosses an empty
	// queue alone. Default readahead.BudgetBytes, the run's one byte budget.
	QueueBytes int
	// DisableMetrics turns off the observability layer: filters see a nil
	// metric set, stream counters are not kept, and RunStats.Report stays
	// nil. The default (metrics on) costs a few atomic operations per
	// buffer.
	DisableMetrics bool
	// WireCodec selects the serialization of buffers crossing nodes on the
	// TCP engine (ignored by the pure local engine). The zero value is
	// CodecGob, the original transport; CodecBinary uses the length-prefixed
	// framing with direct backing-array writes for registered payload types.
	WireCodec Codec
	// Failover lets surviving transparent copies inherit the un-acked buffers
	// of a failed copy instead of aborting the run. It applies to filters
	// whose inbound streams are all policy-routed (round-robin or
	// demand-driven) and that have more than one copy; a failure anywhere
	// else, or of a filter's last copy, still aborts with a typed error
	// (ErrCopyFailed / ErrAllCopiesDead). Default off: a copy failure aborts
	// the run, the original behaviour.
	Failover bool
	// Retry hardens the TCP transport (ignored by the pure local engine):
	// dial and send attempts are retried with exponential backoff and seeded
	// jitter, deadlines bound sends and frame-body receives, and sequence
	// numbers on the wire let the receiver drop duplicates created by
	// retransmission. Nil disables retries (single attempt, the original
	// behaviour).
	Retry *RetryPolicy
	// WrapConn, when set, wraps every outbound TCP connection right after a
	// successful dial — the hook used by fault injection (fault.FlakyConn) in
	// chaos tests. The arguments are the producer and consumer node indices.
	WrapConn func(c net.Conn, fromNode, toNode int) net.Conn
	// StallTimeout arms the stall watchdog: when no filter copy anywhere in
	// the graph makes progress (accepts, delivers, or completes any
	// instrumented span) for longer than this, the run fails with a
	// StallError naming the unfinished copies instead of hanging forever.
	// The deadline is global, so backpressure behind a slow-but-working
	// filter never trips it; it must exceed the longest time a single
	// buffer can legitimately spend inside one filter call. 0 (the default)
	// disables the watchdog.
	StallTimeout time.Duration
	// Monitor, when set, runs on its own goroutine for the duration of the
	// run with a Probe over the live runtime. stop is closed when the run
	// finishes (or aborts); the engine waits for Monitor to return before
	// building the final report. The pipeline's progress sampler attaches
	// here. Requires metrics (ignored when DisableMetrics is set).
	Monitor func(stop <-chan struct{}, p Probe)
}

// Probe is the live view a Monitor gets of a running engine. Snapshot is
// safe to call at any time from the monitor goroutine: every field it reads
// is maintained atomically by the copies' hot paths.
type Probe interface {
	Snapshot() *metrics.Snapshot
}

func (o *Options) queueBytes() int {
	if o == nil || o.QueueBytes <= 0 {
		return readahead.BudgetBytes
	}
	return o.QueueBytes
}

func (o *Options) codec() Codec {
	if o == nil {
		return CodecGob
	}
	return o.WireCodec
}

// RunLocal executes the graph with every filter copy as a goroutine and all
// streams as in-memory queues — full shared-memory parallelism, the
// configuration DataCutter uses for co-located filters. Placement is
// recorded in the stats but has no performance meaning locally.
func RunLocal(g *Graph, opts *Options) (*RunStats, error) {
	return RunLocalContext(context.Background(), g, opts)
}

// RunLocalContext is RunLocal under a context: when ctx is cancelled every
// blocked Recv/Send returns immediately, all copies wind down, and the run
// returns ctx's error alongside the statistics gathered so far.
func RunLocalContext(ctx context.Context, g *Graph, opts *Options) (*RunStats, error) {
	rt, err := newRuntime(g, opts, nil)
	if err != nil {
		return nil, err
	}
	rt.engine = "local"
	return rt.run(ctx)
}

// inMsg is one queue element: a buffer or an end-of-stream marker. size is
// the payload's SizeBytes as its sender measured it — the credits the
// buffer holds while queued (0 for an end-of-stream marker).
type inMsg struct {
	port    string
	payload Payload
	eos     bool
	size    int
}

// inbox is one filter copy's input queue: first in, first out, bounded by
// the payload bytes queued (credits, one per byte) and not by the number of
// buffers. Many producers put; one goroutine at a time takes — the copy, then
// whichever drainer inherits the queue.
type inbox struct {
	credits *sem.Sem
	mu      sync.Mutex
	q       []inMsg
	head    int
	queued  int // bytes in q, and the most there ever were; under mu
	peak    int
	ready   chan struct{} // holds a token whenever q may be non-empty
}

func newInbox(budget int) *inbox {
	return &inbox{credits: sem.New(budget, budget, budget), ready: make(chan struct{}, 1)}
}

// put queues m once its bytes fit under the budget; it returns false, with
// nothing queued, when stop closes first.
func (in *inbox) put(m inMsg, stop <-chan struct{}) bool {
	if !in.credits.Acquire(m.size, stop) {
		return false
	}
	in.mu.Lock()
	in.q = append(in.q, m)
	in.queued += m.size
	in.peak = max(in.peak, in.queued)
	in.mu.Unlock()
	select {
	case in.ready <- struct{}{}:
	default:
	}
	return true
}

// take removes the oldest message and returns its credits; ok is false when
// the queue is empty, and the caller then waits on ready.
func (in *inbox) take() (m inMsg, ok bool) {
	in.mu.Lock()
	if in.head == len(in.q) {
		in.mu.Unlock()
		return inMsg{}, false
	}
	m = in.q[in.head]
	in.q[in.head] = inMsg{}
	in.head++
	if in.head == len(in.q) {
		in.q, in.head = in.q[:0], 0
	}
	in.queued -= m.size
	in.mu.Unlock()
	in.credits.Release(m.size)
	return m, true
}

// copyState is the runtime state of one filter copy.
type copyState struct {
	filter    string
	copyIdx   int
	node      int
	inbox     *inbox
	pending   atomic.Int64 // buffers queued + in flight
	eosExpect map[string]int
	stats     CopyStats
	met       *metrics.Copy // nil when metrics are disabled

	// dead marks a copy whose failure was tolerated by failover; producers
	// skip dead copies when picking targets. failMsg records the failure for
	// the report (written once at death, read after the run's WaitGroup).
	dead    atomic.Bool
	failMsg string

	// Stall-watchdog state: beats counts engine-level progress events
	// (buffers accepted and delivered), phase labels what the copy is doing
	// (see watchdog.go). Both are written on the hot path and sampled by the
	// watchdog goroutine.
	beats atomic.Int64
	phase atomic.Int32

	// Consumption-rate observations for demand-driven scheduling, updated
	// by the consumer goroutine and read by producers.
	svcCompute atomic.Int64 // total compute ns
	svcMsgs    atomic.Int64 // messages consumed

	// Atomic mirrors of the single-goroutine stats fields, maintained so a
	// Monitor can snapshot blocked/stalled/output mid-run without racing
	// the copy's own goroutine (svcCompute and svcMsgs already mirror
	// Compute and MsgsIn).
	aBlockRecv atomic.Int64
	aBlockSend atomic.Int64
	aMsgsOut   atomic.Int64
}

// connState is the runtime state of one connection.
type connState struct {
	spec      ConnSpec
	consumers []*copyState
	rr        atomic.Uint64
	met       *metrics.Stream // nil when metrics are disabled
}

// transport delivers a message to a consumer copy that is placed on a
// different node than the producer. A nil transport (pure local engine)
// delivers everything through memory.
type transport interface {
	// deliver must block until the message is queued at the consumer
	// (providing backpressure) and return an error on transport failure.
	deliver(from *copyState, to *copyState, m inMsg) error
	// close tears the transport down after the run.
	close() error
}

// runtime is the shared in-process engine used by both the local and TCP
// modes.
type runtime struct {
	graph      *Graph
	copies     map[string][]*copyState
	conns      map[string]*connState // key: from + "." + fromPort
	trans      transport
	engine     string // "local" or "tcp", recorded in the report
	metricsOn  bool
	queueBytes int           // every copy's input-queue budget, payload bytes
	stall      time.Duration // watchdog deadline; 0 = no watchdog
	// stalled is closed by the watchdog when it trips, telling run not to
	// wait forever on goroutines wedged inside filter code. Nil when the
	// watchdog is off.
	stalled chan struct{}
	// failover has an entry per failover-eligible filter (nil map when the
	// option is off).
	failover map[string]*failoverState
	// auxWG tracks dead-copy inbox drainers, waited after the copies finish.
	auxWG sync.WaitGroup

	// Monitor plumbing: start anchors Snapshot's wall clock; monitor is the
	// Options hook (nil when unset or metrics are off).
	start   time.Time
	monitor func(stop <-chan struct{}, p Probe)

	done     chan struct{}
	stopOnce sync.Once
	errMu    sync.Mutex
	firstErr error
}

func newRuntime(g *Graph, opts *Options, trans transport) (*runtime, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rt := &runtime{
		graph:     g,
		copies:    make(map[string][]*copyState),
		conns:     make(map[string]*connState),
		trans:     trans,
		metricsOn: opts == nil || !opts.DisableMetrics,
		done:      make(chan struct{}),
	}
	if opts != nil && opts.StallTimeout > 0 {
		rt.stall = opts.StallTimeout
		rt.stalled = make(chan struct{})
	}
	if opts != nil && opts.Monitor != nil && rt.metricsOn {
		rt.monitor = opts.Monitor
	}
	rt.queueBytes = opts.queueBytes()
	for _, fs := range g.Filters {
		states := make([]*copyState, fs.Copies)
		for i := range states {
			states[i] = &copyState{
				filter:    fs.Name,
				copyIdx:   i,
				node:      fs.Nodes[i],
				inbox:     newInbox(rt.queueBytes),
				eosExpect: map[string]int{},
			}
			states[i].stats.Node = fs.Nodes[i]
			if rt.metricsOn {
				states[i].met = &metrics.Copy{}
			}
		}
		rt.copies[fs.Name] = states
	}
	if opts != nil && opts.Failover {
		rt.failover = make(map[string]*failoverState)
		for _, fs := range g.Filters {
			if failoverEligible(g, fs.Name, fs.Copies) {
				rt.failover[fs.Name] = newFailoverState(fs.Copies)
			}
		}
	}
	for _, c := range g.Conns {
		producer, _ := g.Filter(c.From)
		cs := &connState{spec: c, consumers: rt.copies[c.To]}
		if rt.metricsOn {
			cs.met = &metrics.Stream{}
		}
		rt.conns[c.From+"."+c.FromPort] = cs
		for _, consumer := range rt.copies[c.To] {
			consumer.eosExpect[c.ToPort] += producer.Copies
		}
	}
	return rt, nil
}

func (rt *runtime) fail(err error) {
	rt.errMu.Lock()
	if rt.firstErr == nil {
		rt.firstErr = err
	}
	rt.errMu.Unlock()
	rt.stopOnce.Do(func() { close(rt.done) })
}

var errStopped = errors.New("filter: run aborted")

// run executes every filter copy and waits for completion. Cancelling ctx
// aborts the run: every blocked Recv/Send observes the closed done channel
// and returns, and the run's error is ctx.Err().
func (rt *runtime) run(ctx context.Context) (*RunStats, error) {
	if ctx.Done() != nil {
		watchStop := make(chan struct{})
		defer close(watchStop)
		go func() {
			select {
			case <-ctx.Done():
				rt.fail(ctx.Err())
			case <-watchStop:
			case <-rt.done:
			}
		}()
	}
	start := time.Now()
	rt.start = start
	if rt.stall > 0 {
		finished := make(chan struct{})
		defer close(finished)
		go rt.watchdog(rt.stall, finished)
	}
	// Launch the monitor before the copies so it observes the run from the
	// first tick. stopMonitor is idempotent and waits for the monitor
	// goroutine, so no sample is taken after the final report is built.
	stopMonitor := func() {}
	if rt.monitor != nil {
		monStop := make(chan struct{})
		monDone := make(chan struct{})
		go func() {
			defer close(monDone)
			rt.monitor(monStop, rt)
		}()
		var once sync.Once
		stopMonitor = func() {
			once.Do(func() {
				close(monStop)
				<-monDone
			})
		}
		defer stopMonitor()
	}
	var wg sync.WaitGroup
	for _, fs := range rt.graph.Filters {
		fs := fs
		for i := 0; i < fs.Copies; i++ {
			st := rt.copies[fs.Name][i]
			ctx := &localCtx{rt: rt, st: st, fo: rt.failover[fs.Name]}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx.lastMark = time.Now()
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("filter: %s[%d] panicked: %v", st.filter, st.copyIdx, r)
						}
					}()
					return fs.New(st.copyIdx).Run(ctx)
				}()
				ctx.closeCompute()
				// The copy leaves the watchdog's suspect set: whatever happens
				// from here (EOS delivery, draining) blocks only on copies
				// that are still live and will be named instead.
				st.phase.Store(phaseDone)
				if err != nil && !errors.Is(err, errStopped) {
					if !rt.tolerateFailure(st, ctx, err) {
						return
					}
					// Tolerated: the drainer owns this copy's inbox from here;
					// fall through to sign off downstream streams as if the
					// copy had finished.
				} else if ctx.fo != nil && !ctx.finalWaited {
					// Finished (or was stopped) without consuming all input:
					// retire the processing slot so survivors in the final
					// wait don't wait for us.
					ctx.fo.release()
				}
				// Signal end-of-stream on every outgoing connection.
				for _, c := range rt.graph.ConnsFrom(st.filter) {
					cs := rt.conns[c.From+"."+c.FromPort]
					for _, consumer := range cs.consumers {
						if derr := rt.deliver(st, consumer, inMsg{port: c.ToPort, eos: true}); derr != nil {
							if !errors.Is(derr, errStopped) {
								rt.fail(derr)
							}
							return
						}
					}
				}
				// Drain any input this copy chose not to consume, so that
				// upstream producers blocked on our full inbox make
				// progress (a filter may legitimately finish early). A dead
				// copy's inbox is drained (and requeued) by its drainer.
				if !st.dead.Load() {
					rt.drain(st, ctx)
				}
			}()
		}
	}
	wgDone := make(chan struct{})
	go func() {
		wg.Wait()
		rt.auxWG.Wait()
		close(wgDone)
	}()
	if rt.stalled == nil {
		<-wgDone
	} else {
		select {
		case <-wgDone:
		case <-rt.stalled:
			// The watchdog tripped. Copies blocked on streams unwind via
			// rt.done, but a goroutine truly wedged inside filter code (a
			// hung read, an endless loop) cannot be interrupted — after a
			// grace period, abandon it and return the diagnostic rather
			// than hang. The leaked goroutines still share the copy stats,
			// so no report is built on this path.
			grace := rt.stall
			if grace > 2*time.Second {
				grace = 2 * time.Second
			}
			select {
			case <-wgDone:
			case <-time.After(grace):
				if rt.trans != nil {
					rt.trans.close() // unblock the transport's receive loops
				}
				rt.errMu.Lock()
				err := rt.firstErr
				rt.errMu.Unlock()
				return &RunStats{Elapsed: time.Since(start), Copies: map[string][]CopyStats{}}, err
			}
		}
	}
	if rt.trans != nil {
		if cerr := rt.trans.close(); cerr != nil && rt.firstErr == nil {
			rt.firstErr = cerr
		}
	}
	stopMonitor()
	stats := &RunStats{Elapsed: time.Since(start), Copies: map[string][]CopyStats{}}
	for name, states := range rt.copies {
		out := make([]CopyStats, len(states))
		for i, st := range states {
			out[i] = st.stats
		}
		stats.Copies[name] = out
	}
	if rt.metricsOn {
		stats.Report = rt.buildReport(stats.Elapsed)
	}
	if rt.firstErr != nil {
		return stats, rt.firstErr
	}
	return stats, nil
}

// Snapshot implements Probe: a mid-run view assembled entirely from the
// atomics the copies maintain on their hot paths (service counters, the
// blocked/stalled mirrors, span timers). Filters appear in the graph's spec
// order and copies in index order, so per-copy identity is stable across
// snapshots and deltas can be taken position-wise.
func (rt *runtime) Snapshot() *metrics.Snapshot {
	s := &metrics.Snapshot{WallNS: int64(time.Since(rt.start))}
	for _, fs := range rt.graph.Filters {
		fsnap := metrics.FilterSnap{Name: fs.Name}
		for _, st := range rt.copies[fs.Name] {
			fsnap.Copies = append(fsnap.Copies, metrics.CopySnap{
				Copy:          st.copyIdx,
				Node:          st.node,
				BusyNS:        st.svcCompute.Load(),
				BlockedRecvNS: st.aBlockRecv.Load(),
				StalledSendNS: st.aBlockSend.Load(),
				MsgsIn:        st.svcMsgs.Load(),
				MsgsOut:       st.aMsgsOut.Load(),
				QueueLen:      st.pending.Load(),
			})
			for name, stat := range st.met.Spans() {
				if fsnap.Spans == nil {
					fsnap.Spans = map[string]int64{}
				}
				fsnap.Spans[name] += stat.TotalNS
			}
		}
		s.Filters = append(s.Filters, fsnap)
	}
	return s
}

// netReporter is implemented by transports that track per-connection network
// activity (the TCP transport).
type netReporter interface {
	netReport() []metrics.ConnReport
}

// buildReport assembles the structured run report from the engine-measured
// copy stats, the filter-recorded span timers, and the per-stream counters.
func (rt *runtime) buildReport(elapsed time.Duration) *metrics.RunReport {
	rep := &metrics.RunReport{Engine: rt.engine, ElapsedNS: int64(elapsed)}
	for _, fs := range rt.graph.Filters {
		fr := metrics.FilterReport{Name: fs.Name}
		for _, st := range rt.copies[fs.Name] {
			cr := metrics.CopyReport{
				Copy:          st.copyIdx,
				Node:          st.node,
				BusyNS:        int64(st.stats.Compute),
				BlockedRecvNS: int64(st.stats.BlockRecv),
				StalledSendNS: int64(st.stats.BlockSend),
				MsgsIn:        st.stats.MsgsIn,
				MsgsOut:       st.stats.MsgsOut,
				BytesIn:       st.stats.BytesIn,
				BytesOut:      st.stats.BytesOut,
			}
			st.met.Fill(&cr)
			cr.Failed = st.stats.Failed
			cr.Failure = st.failMsg
			fr.Copies = append(fr.Copies, cr)
		}
		if fo := rt.failover[fs.Name]; fo != nil {
			fo.mu.Lock()
			fr.Redelivered = fo.redelivered
			fo.mu.Unlock()
		}
		rep.Filters = append(rep.Filters, fr)
	}
	for _, c := range rt.graph.Conns {
		cs := rt.conns[c.From+"."+c.FromPort]
		if cs == nil || cs.met == nil {
			continue
		}
		sw := cs.met.SendWait.Stat()
		rep.Streams = append(rep.Streams, metrics.StreamReport{
			From: c.From, FromPort: c.FromPort, To: c.To, ToPort: c.ToPort,
			Policy:     c.Policy.String(),
			Buffers:    cs.met.Buffers.Load(),
			Bytes:      cs.met.Bytes.Load(),
			QueueMax:   cs.met.QueueMax.Load(),
			SendWaits:  sw.Count,
			SendWaitNS: sw.TotalNS,

			QueuedBytesMax: queuedBytesMax(cs.consumers),
			BudgetBytes:    int64(rt.queueBytes),
			BufferBytesMax: cs.met.BufferMax.Load(),
		})
	}
	if nr, ok := rt.trans.(netReporter); ok {
		rep.Network = nr.netReport()
	}
	rep.Finalize()
	return rep
}

// queuedBytesMax is the most payload bytes ever queued at once in any one
// of the copies' input queues.
func queuedBytesMax(copies []*copyState) int64 {
	peak := 0
	for _, st := range copies {
		st.inbox.mu.Lock()
		peak = max(peak, st.inbox.peak)
		st.inbox.mu.Unlock()
	}
	return int64(peak)
}

// drain consumes and discards leftover inbox traffic after a copy's Run has
// returned, until every expected end-of-stream marker has arrived.
func (rt *runtime) drain(st *copyState, ctx *localCtx) {
	expect := 0
	for _, n := range st.eosExpect {
		expect += n
	}
	seen := 0
	for _, n := range ctx.eosSeen {
		seen += n
	}
	for seen < expect {
		m, ok := st.inbox.takeWait(rt.done)
		if !ok {
			return
		}
		if m.eos {
			seen++
		} else {
			st.pending.Add(-1)
		}
	}
}

// deliver routes a message to the consumer copy, through memory when
// co-located (pointer hand-off) or through the transport when the producer
// and consumer are on different nodes.
func (rt *runtime) deliver(from, to *copyState, m inMsg) error {
	// After an abort, fail sends immediately: a transport delivery into a
	// draining remote endpoint would otherwise keep succeeding and a
	// producer with more work than queue space would never observe the stop.
	select {
	case <-rt.done:
		return errStopped
	default:
	}
	if !m.eos {
		to.pending.Add(1)
	}
	var err error
	if rt.trans != nil && from.node != to.node {
		err = rt.trans.deliver(from, to, m)
	} else {
		err = rt.enqueueLocal(to, m)
	}
	if err != nil && !m.eos {
		to.pending.Add(-1)
	}
	return err
}

// enqueueLocal queues a message at a copy on this side of the wire, for
// deliver and the transports' receive loops. It blocks while the queue is over
// its byte budget, which holds the producer — across TCP by stalling its socket.
func (rt *runtime) enqueueLocal(to *copyState, m inMsg) error {
	if !to.inbox.put(m, rt.done) {
		return errStopped
	}
	return nil
}

// takeWait is take for the drainers, which have nothing else to wait for: it
// blocks until a message arrives; ok is false once stop closes.
func (in *inbox) takeWait(stop <-chan struct{}) (m inMsg, ok bool) {
	for {
		if m, ok = in.take(); ok {
			return m, true
		}
		select {
		case <-in.ready:
		case <-stop:
			return inMsg{}, false
		}
	}
}

// localCtx implements Context for the in-process engines.
type localCtx struct {
	rt *runtime
	st *copyState
	fo *failoverState // nil unless this filter is failover-eligible

	lastMark time.Time // start of the current compute segment
	eosSeen  map[string]int
	openIn   int // ports still expecting data; -1 = uninitialized

	// inflight is the last buffer handed to the filter, un-acked until the
	// next Recv call: if the copy dies in between, failover redelivers it to
	// a sibling. Same-goroutine access only (tolerateFailure runs on the
	// copy's own goroutine).
	inflight    inMsg
	hasInflight bool
	// finalWaited is true while this copy is parked in the failover final
	// wait (all EOS seen, processing slot released).
	finalWaited bool
}

// Aborting reports whether the runtime is tearing the run down after a
// failure: an end-of-stream a filter observes then is a side effect of the
// abort, not completion. Sink filters that finalize durable artifacts on
// clean end-of-stream (filters.NewUSO) discover it by type assertion.
func (c *localCtx) Aborting() bool {
	select {
	case <-c.rt.done:
		return true
	default:
		return false
	}
}

// RunContext returns a context.Context that is cancelled when the run aborts
// — the bridge between the engine's done channel and context-aware I/O
// (backend reads, HTTP range requests). Filters discover it by type
// assertion, like Aborting; engines without one (the simulation) leave the
// filters on context.Background.
func (c *localCtx) RunContext() context.Context { return doneCtx{done: c.rt.done} }

// doneCtx adapts the runtime's done channel to the context.Context interface
// without spawning a propagation goroutine per copy.
type doneCtx struct{ done chan struct{} }

func (d doneCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (d doneCtx) Done() <-chan struct{}       { return d.done }
func (d doneCtx) Err() error {
	select {
	case <-d.done:
		return context.Canceled
	default:
		return nil
	}
}
func (d doneCtx) Value(key any) any { return nil }

func (c *localCtx) FilterName() string     { return c.st.filter }
func (c *localCtx) CopyIndex() int         { return c.st.copyIdx }
func (c *localCtx) NumCopies() int         { return len(c.rt.copies[c.st.filter]) }
func (c *localCtx) Node() int              { return c.st.node }
func (c *localCtx) Metrics() *metrics.Copy { return c.st.met }

func (c *localCtx) ConsumerCopies(port string) int {
	cs, ok := c.rt.conns[c.st.filter+"."+port]
	if !ok {
		return 0
	}
	return len(cs.consumers)
}

// markCompute closes the current compute segment and returns the current
// time, which the caller uses to time the blocking section.
func (c *localCtx) markCompute() time.Time {
	now := time.Now()
	d := now.Sub(c.lastMark)
	c.st.stats.Compute += d
	c.st.svcCompute.Add(int64(d))
	return now
}

func (c *localCtx) closeCompute() { c.markCompute() }

func (c *localCtx) Recv() (Msg, bool) {
	if c.eosSeen == nil {
		c.eosSeen = map[string]int{}
		c.openIn = 0
		for _, n := range c.st.eosExpect {
			if n > 0 {
				c.openIn++
			}
		}
	}
	// Returning to Recv acks the previous buffer: the filter is done with it,
	// so it is no longer redelivered if this copy dies.
	c.hasInflight = false
	blockStart := c.markCompute()
	c.st.phase.Store(phaseRecv)
	defer func() {
		now := time.Now()
		c.st.stats.BlockRecv += now.Sub(blockStart)
		c.st.aBlockRecv.Add(int64(now.Sub(blockStart)))
		c.lastMark = now
		c.st.phase.Store(phaseRun)
	}()
	for {
		// Failover-eligible copies first take over requeued buffers from dead
		// siblings; once their own streams are closed they park in the final
		// wait until the whole filter is quiescent.
		var wake chan struct{}
		if c.fo != nil {
			m, ok, done, ch := c.fo.poll(c)
			if ok {
				return c.accept(m)
			}
			if done {
				return Msg{}, false
			}
			wake = ch
		}
		if c.openIn == 0 {
			if c.fo == nil {
				return Msg{}, false
			}
			select {
			case <-wake:
				continue
			case <-c.rt.done:
				return Msg{}, false
			}
		}
		m, ok := c.st.inbox.take()
		if !ok {
			select {
			case <-c.st.inbox.ready:
			case <-wake: // nil (blocks forever) unless failover-eligible
			case <-c.rt.done:
				return Msg{}, false
			}
			continue
		}
		if m.eos {
			c.eosSeen[m.port]++
			if c.eosSeen[m.port] == c.st.eosExpect[m.port] {
				c.openIn--
			}
			continue
		}
		c.st.pending.Add(-1)
		return c.accept(m)
	}
}

// accept records the consumption stats for a buffer and marks it in flight
// until the next Recv.
func (c *localCtx) accept(m inMsg) (Msg, bool) {
	c.st.stats.MsgsIn++
	c.st.beats.Add(1)
	c.st.svcMsgs.Add(1)
	c.st.stats.BytesIn += int64(m.payload.SizeBytes())
	if c.fo != nil {
		c.inflight = m
		c.hasInflight = true
	}
	return Msg{Port: m.port, Payload: m.payload}, true
}

func (c *localCtx) Send(port string, p Payload) error {
	cs, ok := c.rt.conns[c.st.filter+"."+port]
	if !ok {
		return fmt.Errorf("filter: %s has no connection on port %q", c.st.filter, port)
	}
	var target *copyState
	switch cs.spec.Policy {
	case RoundRobin:
		// Advance past dead copies (failover): the n-bounded scan keeps the
		// no-failure path identical to plain modulo round-robin.
		n := len(cs.consumers)
		for i := 0; i < n; i++ {
			if cand := cs.consumers[int(cs.rr.Add(1)-1)%n]; !cand.dead.Load() {
				target = cand
				break
			}
		}
	case DemandDriven:
		// DataCutter's demand-driven scheduler assigns each buffer based on
		// the copies' buffer consumption rates. Estimate each copy's
		// completion time for this buffer as (queue+1) × its observed mean
		// service time, preferring a co-located copy on ties (it receives
		// the buffer by pointer hand-off). Dead copies are not candidates.
		var best *copyState
		var bestScore int64
		for _, cand := range cs.consumers {
			if cand.dead.Load() {
				continue
			}
			if s := ddScore(cand, c.st.node); best == nil || s < bestScore {
				best, bestScore = cand, s
			}
		}
		target = best
	case Explicit:
		return fmt.Errorf("filter: port %s.%s is explicit; use SendTo", c.st.filter, port)
	}
	if target == nil {
		err := fmt.Errorf("filter: %s: %w", cs.spec.To, ErrAllCopiesDead)
		c.rt.fail(err)
		return errStopped
	}
	return c.send(cs, target, port, p)
}

func (c *localCtx) SendTo(port string, copy int, p Payload) error {
	cs, ok := c.rt.conns[c.st.filter+"."+port]
	if !ok {
		return fmt.Errorf("filter: %s has no connection on port %q", c.st.filter, port)
	}
	if copy < 0 || copy >= len(cs.consumers) {
		return fmt.Errorf("filter: %s.%s copy %d out of range [0, %d)", c.st.filter, port, copy, len(cs.consumers))
	}
	return c.send(cs, cs.consumers[copy], port, p)
}

// ddScore estimates a copy's completion time for one more buffer:
// (queue+1) × mean observed service time, in nanoseconds, doubled so that a
// one-unit remote penalty acts purely as a locality tie-break. Copies with
// no history score by queue length alone.
func ddScore(cand *copyState, fromNode int) int64 {
	svc := int64(1)
	if n := cand.svcMsgs.Load(); n > 0 {
		if s := cand.svcCompute.Load() / n; s > svc {
			svc = s
		}
	}
	score := (cand.pending.Load() + 1) * svc * 2
	if cand.node != fromNode {
		score++
	}
	return score
}

func (c *localCtx) send(cs *connState, target *copyState, port string, p Payload) error {
	if p == nil {
		return fmt.Errorf("filter: %s sent nil payload on %q", c.st.filter, port)
	}
	// Size the payload before the delivery: once delivered the consumer owns
	// it and may recycle its buffers (see filters.ParamMsg.Recycle).
	size := int64(p.SizeBytes())
	blockStart := c.markCompute()
	c.st.phase.Store(phaseSend)
	err := c.rt.deliver(c.st, target, inMsg{port: cs.spec.ToPort, payload: p, size: int(size)})
	now := time.Now()
	c.st.stats.BlockSend += now.Sub(blockStart)
	c.st.aBlockSend.Add(int64(now.Sub(blockStart)))
	c.lastMark = now
	c.st.phase.Store(phaseRun)
	if err != nil {
		return err
	}
	c.st.stats.MsgsOut++
	c.st.aMsgsOut.Add(1)
	c.st.beats.Add(1)
	c.st.stats.BytesOut += size
	// The deliver block time is the producer's wait for queue credit on this
	// stream; the pending load right after delivery approximates the depth
	// the consumer's queue reached.
	cs.met.ObserveSend(size, now.Sub(blockStart), target.pending.Load())
	return nil
}

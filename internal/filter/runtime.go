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
	"haralick4d/internal/resilience"
	"haralick4d/internal/sem"
)

// Options configures an engine run.
type Options struct {
	// QueueBytes bounds each filter copy's input queue (stream
	// backpressure) in payload bytes, as Payload.SizeBytes reports them: a
	// producer blocks while the buffers queued at its consumer, plus its own,
	// exceed it. Under the simulated cluster a buffer holds its bytes from
	// the send, through the link, until the consumer takes it. A buffer
	// larger than the whole budget crosses an empty queue alone. Default
	// readahead.BudgetBytes, the run's one byte budget.
	QueueBytes int
	// DisableMetrics turns off the observability layer: filters see a nil
	// metric set and stream counters are not kept, so the run report holds
	// only the elapsed time and the engine's per-copy ledgers. The default
	// (metrics on) costs a few atomic operations per buffer.
	DisableMetrics bool
	// WireCodec names the TCP engine's serialization of buffers crossing
	// nodes. CodecBinary, the zero value, is the only one.
	WireCodec Codec
	// Failover lets surviving transparent copies inherit the un-acked buffers
	// of a failed copy instead of aborting the run. It applies to filters
	// whose inbound streams are all policy-routed (round-robin or
	// demand-driven) and that have more than one copy; a failure anywhere
	// else, or of a filter's last copy, still aborts with a typed error
	// (ErrCopyFailed / ErrAllCopiesDead). Default off: a copy failure aborts
	// the run, the original behaviour.
	Failover bool
	// Resilience hardens the TCP transport's node links (ignored by the
	// local engine and the simulated cluster). Its Retry schedule retries
	// dials and sends with
	// exponential backoff and jitter seeded from the node pair, and sequence
	// numbers on the wire let the receiver drop duplicates created by
	// retransmission; a zero schedule keeps single-shot sends with no
	// sequence numbers. Its breaker and budget are instantiated once per
	// ordered node pair and shared by every copy sending over that link.
	// Nil: single-shot sends and nothing else.
	Resilience *resilience.Policy
	// SendTimeout is the per-attempt write deadline on envelope sends; zero
	// leaves writes unbounded. TCP engine only.
	SendTimeout time.Duration
	// RecvTimeout bounds how long the receiver waits for the body of a frame
	// whose header has already arrived — a torn frame from a failed sender
	// is detected instead of hanging. Zero disables it. TCP engine only.
	RecvTimeout time.Duration
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
	// buffer can legitimately spend inside one filter call. Under the
	// simulated cluster it counts virtual time, and a graph in which no copy
	// can run fails with a StallError at once, armed or not. 0 (the default)
	// disables the watchdog.
	StallTimeout time.Duration
	// Monitor, when set, runs on its own goroutine for the duration of the
	// run with a Probe over the live runtime. stop is closed when the run
	// finishes (or aborts); the engine waits for Monitor to return before
	// building the final report. The pipeline's progress sampler attaches
	// here. Requires metrics (ignored when DisableMetrics is set).
	Monitor func(stop <-chan struct{}, p Probe)
}

// Probe is the live view a Monitor gets of a running engine. Report is safe
// to call at any time from the monitor goroutine: it builds the run report
// as it stands from counters the copies' hot paths maintain atomically.
// Filters appear in the graph's spec order and copies in index order, so
// per-copy identity is stable and deltas can be taken position-wise.
type Probe interface {
	Report() *metrics.RunReport
}

func (o *Options) queueBytes() int {
	if o == nil || o.QueueBytes <= 0 {
		return readahead.BudgetBytes
	}
	return o.QueueBytes
}

// RunLocal executes the graph with every filter copy as a goroutine and all
// streams as in-memory queues — full shared-memory parallelism, the
// configuration DataCutter uses for co-located filters. Placement is
// recorded in the report but has no performance meaning locally.
func RunLocal(g *Graph, opts *Options) (*metrics.RunReport, error) {
	return RunLocalContext(context.Background(), g, opts)
}

// RunLocalContext is RunLocal under a context: when ctx is cancelled every
// blocked Recv/Send returns immediately, all copies wind down, and the run
// returns ctx's error alongside the report of what ran so far.
func RunLocalContext(ctx context.Context, g *Graph, opts *Options) (*metrics.RunReport, error) {
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
// buffers. Many producers put; one task at a time takes — the copy, then
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
// nothing queued, when stop closes first. wait is the clock's, nil for the
// wall clock (see runtime.semWait).
func (in *inbox) put(m inMsg, stop <-chan struct{}, wait func(ready, stop <-chan struct{}) bool) bool {
	if !in.credits.AcquireWith(m.size, stop, wait) {
		return false
	}
	in.push(m)
	return true
}

// push queues m, whose credits its sender already holds.
func (in *inbox) push(m inMsg) {
	in.mu.Lock()
	in.q = append(in.q, m)
	in.queued += m.size
	in.peak = max(in.peak, in.queued)
	in.mu.Unlock()
	select {
	case in.ready <- struct{}{}:
	default:
	}
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
	led       metrics.Ledger

	// dead marks a copy whose failure was tolerated by failover; producers
	// skip dead copies when picking targets.
	dead atomic.Bool
	// phase labels what the copy is doing for the stall watchdog (see
	// watchdog.go): written on the hot path, sampled by the watchdog.
	phase atomic.Int32
}

// connState is the runtime state of one connection.
type connState struct {
	spec      ConnSpec
	consumers []*copyState
	rr        atomic.Uint64
	met       *metrics.Stream // nil when metrics are disabled
}

// transport delivers a message to a consumer copy that is placed on a
// different node than the producer. A nil transport (the local engine)
// delivers everything through memory.
type transport interface {
	// deliver must block until the message holds its credits at the
	// consumer (providing backpressure) and return an error on transport
	// failure.
	deliver(from *copyState, to *copyState, m inMsg) error
	// transfer is the demand-driven score's cost of moving a buffer of
	// the given payload bytes from node a to node b.
	transfer(a, b, bytes int) time.Duration
	// close tears the transport down after the run.
	close() error
}

// runtime is the one filter runtime every engine runs on: the local engine
// (no transport, wall clock), the TCP engine (TCP transport, wall clock) and
// the simulated cluster (simulated links, virtual clock).
type runtime struct {
	graph      *Graph
	copies     map[string][]*copyState
	conns      map[string]*connState // key: from + "." + fromPort
	trans      transport
	engine     string // "local", "tcp" or "sim", recorded in the report
	metricsOn  bool
	queueBytes int           // every copy's input-queue budget, payload bytes
	stall      time.Duration // watchdog deadline; 0 = no watchdog
	// failover has an entry per failover-eligible filter (nil map when the
	// option is off).
	failover map[string]*failoverState

	// clk is how tasks block and how time is read; run makes a wall clock
	// when the engine set none. semWait is its wait for the queues' credit
	// semaphores, nil under the wall clock (a plain select).
	clk     clock
	semWait func(ready, stop <-chan struct{}) bool
	// start is the host time the run began: the stall diagnosis's anchor
	// for absolute timestamps.
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
			if rt.metricsOn {
				states[i].led.Met = &metrics.Copy{}
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
func (rt *runtime) run(ctx context.Context) (*metrics.RunReport, error) {
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
	rt.start = time.Now()
	if rt.clk == nil {
		rt.clk = &wallClock{start: rt.start, done: rt.done}
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
	for _, fs := range rt.graph.Filters {
		for _, st := range rt.copies[fs.Name] {
			rt.clk.spawn(st, rt.copyMain(fs, st))
		}
	}
	if !rt.clk.drive(rt) {
		// The watchdog tripped and tasks wedged inside filter code did not
		// unwind within its grace period: abandon them and return the
		// diagnostic rather than hang. The report reads only atomics, so it
		// is built on this path too.
		if rt.trans != nil {
			rt.trans.close() // unblock the transport's receive loops
		}
		rt.errMu.Lock()
		err := rt.firstErr
		rt.errMu.Unlock()
		return rt.Report(), err
	}
	if rt.trans != nil {
		if cerr := rt.trans.close(); cerr != nil && rt.firstErr == nil {
			rt.firstErr = cerr
		}
	}
	stopMonitor()
	return rt.Report(), rt.firstErr
}

// copyMain is the task of one filter copy: run the filter, sign off
// downstream, drain what it left unconsumed.
func (rt *runtime) copyMain(fs FilterSpec, st *copyState) func() {
	return func() {
		ctx := &copyCtx{rt: rt, st: st, fo: rt.failover[fs.Name], lastMark: rt.clk.now()}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("filter: %s[%d] panicked: %v", st.filter, st.copyIdx, r)
				}
			}()
			return fs.New(st.copyIdx).Run(ctx)
		}()
		ctx.markCompute()
		// The copy leaves the watchdog's suspect set: whatever happens from
		// here (EOS delivery, draining) blocks only on copies that are still
		// live and will be named instead.
		st.phase.Store(phaseDone)
		if err != nil && !errors.Is(err, errStopped) {
			if !rt.tolerateFailure(st, ctx, err) {
				return
			}
			// Tolerated: the drainer owns this copy's inbox from here; fall
			// through to sign off downstream streams as if the copy had
			// finished.
		} else if ctx.fo != nil && !ctx.finalWaited {
			// Finished (or was stopped) without consuming all input: retire
			// the processing slot so survivors in the final wait don't wait
			// for us.
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
		// A dead copy's queue is drained (and requeued) by its drainer.
		if !st.dead.Load() {
			rt.drain(st, ctx.eosLeft(), nil)
		}
	}
}

// netReporter is implemented by transports that track per-connection network
// activity (the TCP transport).
type netReporter interface {
	netReport() []metrics.ConnReport
}

// Report is the run report as the copies' counters stand: the Probe a
// Monitor samples mid-run, and the run's result once every copy is done.
// To the shared builder's rows it adds failover redeliveries, the streams'
// queue bytes and the TCP network table.
func (rt *runtime) Report() *metrics.RunReport {
	rep := BuildReport(rt.engine, rt.clk.now(), rt.graph,
		func(name string, i int) *metrics.Ledger { return &rt.copies[name][i].led },
		func(c ConnSpec) *metrics.Stream { return rt.conns[c.From+"."+c.FromPort].met })
	for i := range rep.Filters {
		if fo := rt.failover[rep.Filters[i].Name]; fo != nil {
			fo.mu.Lock()
			rep.Filters[i].Redelivered = fo.redelivered
			fo.mu.Unlock()
		}
	}
	for i := range rep.Streams {
		s := &rep.Streams[i]
		s.QueuedBytesMax = queuedBytesMax(rt.conns[s.From+"."+s.FromPort].consumers)
		s.BudgetBytes = int64(rt.queueBytes)
	}
	if nr, ok := rt.trans.(netReporter); ok {
		rep.Network = nr.netReport()
	}
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

// drain takes what is left in a copy's queue until its last end-of-stream
// marker: discarded after the copy finished, so producers blocked on its
// budget move on (a filter may legitimately finish early), or requeued to
// the survivors of fo when the copy died. take hands each buffer's credits
// back, so the requeued buffer no longer counts against anyone's.
func (rt *runtime) drain(st *copyState, left int, fo *failoverState) {
	for left > 0 {
		m, ok := rt.takeWait(st.inbox)
		if !ok {
			return
		}
		if m.eos {
			left--
			continue
		}
		st.pending.Add(-1)
		if fo != nil {
			fo.requeue(m)
		}
	}
	if fo != nil {
		fo.mu.Lock()
		fo.draining--
		fo.broadcastLocked()
		fo.mu.Unlock()
	}
}

// takeWait is take for the drainers, which have nothing else to wait for: it
// blocks until a message arrives; ok is false once the run aborts.
func (rt *runtime) takeWait(in *inbox) (m inMsg, ok bool) {
	for {
		if m, ok = in.take(); ok {
			return m, true
		}
		if !rt.clk.wait(in.ready, nil) {
			return inMsg{}, false
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
	if !to.inbox.put(m, rt.done, rt.semWait) {
		return errStopped
	}
	return nil
}

// copyCtx implements Context for every engine.
type copyCtx struct {
	rt *runtime
	st *copyState
	fo *failoverState // nil unless this filter is failover-eligible

	lastMark time.Duration // start of the current compute segment, on rt.clk
	eosSeen  map[string]int
	openIn   int // ports still expecting data; -1 = uninitialized

	// inflight is the last buffer handed to the filter, un-acked until the
	// next Recv call: if the copy dies in between, failover redelivers it to
	// a sibling. Same-task access only (tolerateFailure runs on the copy's
	// own task).
	inflight    inMsg
	hasInflight bool
	// finalWaited is true while this copy is parked in the failover final
	// wait (all EOS seen, processing slot released).
	finalWaited bool
}

func (c *copyCtx) Aborting() bool {
	select {
	case <-c.rt.done:
		return true
	default:
		return false
	}
}

func (c *copyCtx) RunContext() context.Context { return doneCtx{done: c.rt.done} }

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

func (c *copyCtx) FilterName() string     { return c.st.filter }
func (c *copyCtx) CopyIndex() int         { return c.st.copyIdx }
func (c *copyCtx) NumCopies() int         { return len(c.rt.copies[c.st.filter]) }
func (c *copyCtx) Node() int              { return c.st.node }
func (c *copyCtx) Metrics() *metrics.Copy { return c.st.led.Met }

func (c *copyCtx) ConsumerCopies(port string) int {
	cs, ok := c.rt.conns[c.st.filter+"."+port]
	if !ok {
		return 0
	}
	return len(cs.consumers)
}

// markCompute closes the current compute segment, charging it to the copy's
// busy time, and returns the clock's time, which the caller uses to time the
// blocking section.
func (c *copyCtx) markCompute() time.Duration { return c.rt.clk.compute(c.st, c.lastMark) }

func (c *copyCtx) Recv() (Msg, bool) {
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
		now := c.rt.clk.now()
		c.st.led.BlockedRecv.Add(int64(now - blockStart))
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
			if c.fo == nil || !c.rt.clk.wait(wake, nil) {
				return Msg{}, false
			}
			continue
		}
		m, ok := c.st.inbox.take()
		if !ok {
			// wake is nil (never ready) unless failover-eligible.
			if !c.rt.clk.wait(c.st.inbox.ready, wake) {
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

// eosLeft is the number of end-of-stream markers the copy has still to take.
func (c *copyCtx) eosLeft() int {
	left := 0
	for port, n := range c.st.eosExpect {
		left += n - c.eosSeen[port]
	}
	return left
}

// accept counts a consumed buffer in the copy's ledger and marks it in
// flight until the next Recv.
func (c *copyCtx) accept(m inMsg) (Msg, bool) {
	c.st.led.MsgsIn.Inc()
	c.st.led.BytesIn.Add(int64(m.payload.SizeBytes()))
	if c.fo != nil {
		c.inflight = m
		c.hasInflight = true
	}
	return Msg{Port: m.port, Payload: m.payload}, true
}

func (c *copyCtx) Send(port string, p Payload) error {
	cs, err := c.out(port, p)
	if err != nil {
		return err
	}
	if cs.spec.Policy == Explicit {
		return fmt.Errorf("filter: port %s.%s is explicit; use SendTo", c.st.filter, port)
	}
	return c.send(cs, -1, p)
}

func (c *copyCtx) SendTo(port string, copy int, p Payload) error {
	cs, err := c.out(port, p)
	if err != nil {
		return err
	}
	if copy < 0 || copy >= len(cs.consumers) {
		return fmt.Errorf("filter: %s.%s copy %d out of range [0, %d)", c.st.filter, port, copy, len(cs.consumers))
	}
	return c.send(cs, copy, p)
}

// out resolves a send's connection.
func (c *copyCtx) out(port string, p Payload) (*connState, error) {
	cs, ok := c.rt.conns[c.st.filter+"."+port]
	if !ok {
		return nil, fmt.Errorf("filter: %s has no connection on port %q", c.st.filter, port)
	}
	if p == nil {
		return nil, fmt.Errorf("filter: %s sent nil payload on %q", c.st.filter, port)
	}
	return cs, nil
}

// send closes the compute segment, picks the consumer copy — copy, or by the
// connection's policy when copy is -1 — and delivers the buffer to it.
func (c *copyCtx) send(cs *connState, copy int, p Payload) error {
	// Size the payload before the delivery: once delivered the consumer owns
	// it and may recycle its buffers (see filters.ParamMsg.Recycle).
	size := p.SizeBytes()
	blockStart := c.markCompute()
	c.st.phase.Store(phaseSend)
	var target *copyState
	switch {
	case copy >= 0:
		target = cs.consumers[copy]
	case cs.spec.Policy == RoundRobin:
		// Advance past dead copies (failover): the n-bounded scan keeps the
		// no-failure path identical to plain modulo round-robin.
		n := len(cs.consumers)
		for i := 0; i < n; i++ {
			if cand := cs.consumers[int(cs.rr.Add(1)-1)%n]; !cand.dead.Load() {
				target = cand
				break
			}
		}
	default:
		target = c.rt.demandTarget(cs.consumers, c.st.node, size)
	}
	err := errStopped
	if target != nil {
		err = c.rt.deliver(c.st, target, inMsg{port: cs.spec.ToPort, payload: p, size: size})
	} else {
		c.rt.fail(fmt.Errorf("filter: %s: %w", cs.spec.To, ErrAllCopiesDead))
	}
	now := c.rt.clk.now()
	c.st.led.StalledSend.Add(int64(now - blockStart))
	c.lastMark = now
	c.st.phase.Store(phaseRun)
	if err != nil {
		return err
	}
	c.st.led.MsgsOut.Inc()
	c.st.led.BytesOut.Add(int64(size))
	// The deliver block time is the producer's wait for queue credit on this
	// stream; the pending load right after delivery approximates the depth
	// the consumer's queue reached.
	cs.met.ObserveSend(int64(size), now-blockStart, target.pending.Load())
	return nil
}

// demandTarget is DataCutter's demand-driven choice, which assigns each
// buffer based on the copies' buffer consumption rates: the live copy with
// the lowest ddScore, the first in index order among equals; nil when every
// copy is dead.
func (rt *runtime) demandTarget(consumers []*copyState, from, size int) *copyState {
	var best *copyState
	var bestScore int64
	for _, cand := range consumers {
		if cand.dead.Load() {
			continue
		}
		var transfer time.Duration
		if rt.trans != nil && cand.node != from {
			transfer = rt.trans.transfer(from, cand.node, size)
		}
		if s := ddScore(cand, from, transfer); best == nil || s < bestScore {
			best, bestScore = cand, s
		}
	}
	return best
}

// ddScore estimates when a copy would finish one more buffer: (queue+1) ×
// its mean observed service time, plus the transfer that reaches it, in
// nanoseconds — doubled, so that a one-unit remote penalty acts purely as a
// tie-break in favour of a co-located copy (it receives the buffer by
// pointer hand-off). A copy with no history serves in 1 ns, so it is scored
// by its queue and the transfer alone.
func ddScore(cand *copyState, from int, transfer time.Duration) int64 {
	svc := int64(1)
	if n := cand.led.MsgsIn.Load(); n > 0 {
		if s := cand.led.Busy.Load() / n; s > svc {
			svc = s
		}
	}
	score := ((cand.pending.Load()+1)*svc + int64(transfer)) * 2
	if cand.node != from {
		score++
	}
	return score
}

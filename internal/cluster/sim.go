package cluster

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
)

// Options configures a simulated run.
type Options struct {
	// QueueDepth bounds each filter copy's input queue, counting buffers in
	// flight on the network — the credit-based flow control that makes
	// demand-driven scheduling meaningful. Default 32.
	QueueDepth int
	// ComputeScale converts measured host wall time into virtual compute
	// time on a speed-1.0 node: virtual = wall · ComputeScale / speed.
	// Calibrate it to the ratio host-core-speed : reference-node-speed
	// (e.g. ~40 for a modern core vs the paper's PIII-900). Default 1.
	ComputeScale float64
	// MsgOverheadBytes is the per-message wire overhead added to every
	// payload (headers, serialization framing). Default 64.
	MsgOverheadBytes int
	// DisableMetrics turns off the observability layer: filters see a nil
	// metric set, and the run report holds only the elapsed time and the
	// per-copy ledgers.
	DisableMetrics bool
}

func (o *Options) depth() int {
	if o == nil || o.QueueDepth <= 0 {
		return 32
	}
	return o.QueueDepth
}

func (o *Options) scale() float64 {
	if o == nil || o.ComputeScale <= 0 {
		return 1
	}
	return o.ComputeScale
}

func (o *Options) overhead() int {
	if o == nil || o.MsgOverheadBytes <= 0 {
		return 64
	}
	return o.MsgOverheadBytes
}

// Run executes the graph on the virtual cluster and returns its run report
// in virtual time. Filter code executes for real (outputs are real), one copy
// at a time; the wall time of each compute segment is scaled by the node's
// speed, and every cross-node buffer pays latency plus bytes/bandwidth on
// its link, with transfers on the same link serialized.
func Run(g *filter.Graph, topo *Topology, opts *Options) (*metrics.RunReport, error) {
	return RunContext(context.Background(), g, topo, opts)
}

// RunContext is Run under a context. The simulation checks for cancellation
// between scheduler events: a running compute segment finishes (filter code
// executes for real and cannot be interrupted), then the run aborts and
// returns ctx's error with the report of what ran so far.
func RunContext(ctx context.Context, g *filter.Graph, topo *Topology, opts *Options) (*metrics.RunReport, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	e := &engine{
		graph:     g,
		topo:      topo,
		ctx:       ctx,
		depth:     opts.depth(),
		scale:     opts.scale(),
		overhead:  opts.overhead(),
		metricsOn: opts == nil || !opts.DisableMetrics,
		ops:       make(chan op),
		byName:    map[string][]*proc{},
		conns:     map[string]*simConn{},
		linkBusy:  map[int]time.Duration{},
		cpuBusy:   map[int]time.Duration{},
	}
	for _, fs := range g.Filters {
		procs := make([]*proc, fs.Copies)
		for i := range procs {
			p := &proc{
				name:      fs.Name,
				copyIdx:   i,
				node:      fs.Nodes[i],
				speed:     topo.Speeds[fs.Nodes[i]],
				resume:    make(chan grant),
				eosExpect: map[string]int{},
			}
			if e.metricsOn {
				p.led.Met = &metrics.Copy{}
			}
			procs[i] = p
			e.procs = append(e.procs, p)
		}
		e.byName[fs.Name] = procs
	}
	for _, c := range g.Conns {
		producer, _ := g.Filter(c.From)
		sc := &simConn{spec: c, consumers: e.byName[c.To]}
		if e.metricsOn {
			sc.met = &metrics.Stream{}
		}
		e.conns[c.From+"."+c.FromPort] = sc
		for _, consumer := range e.byName[c.To] {
			consumer.eosExpect[c.ToPort] += producer.Copies
		}
	}
	for _, fs := range g.Filters {
		fs := fs
		for _, p := range e.byName[fs.Name] {
			p := p
			go e.procMain(p, fs)
		}
	}
	e.runLoop()
	// Engine-measured times (busy, blocked, stalled, stream send waits) are
	// virtual; filter-recorded spans and pool counters are host wall time —
	// see the metrics package docs.
	rep := filter.BuildReport("sim", e.clock, g,
		func(name string, i int) *metrics.Ledger { return &e.byName[name][i].led },
		func(c filter.ConnSpec) *metrics.Stream { return e.conns[c.From+"."+c.FromPort].met })
	return rep, e.failErr
}

// simMsg is one buffer (or EOS marker) in the virtual system.
type simMsg struct {
	port    string
	payload filter.Payload
	eos     bool
	bytes   int
}

// sendWait records a producer blocked on a full consumer queue.
type sendWait struct {
	from  *proc
	conn  *simConn
	msg   simMsg
	start time.Duration
}

// proc is one filter copy in the simulation.
type proc struct {
	name    string
	copyIdx int
	node    int
	speed   float64
	resume  chan grant
	done    bool
	led     metrics.Ledger

	// consumer-side state, touched only by the scheduler
	queue       []simMsg
	pending     int // queued + in-flight buffers (credit accounting)
	sendWaiters []sendWait
	recvWaiting bool
	recvStart   time.Duration
	eosExpect   map[string]int

	wallStart time.Time // host time at last resume, for compute charging
}

// grant is what the scheduler hands back to a proc to resume it.
type grant struct {
	msg     simMsg
	ok      bool
	aborted bool
}

type opKind int

const (
	opRecv opKind = iota
	opSend
	opDone
)

// op is a request from a proc to the scheduler.
type op struct {
	p      *proc
	kind   opKind
	conn   *simConn
	toCopy int // explicit target copy, or -1 for policy
	msg    simMsg
	err    error // opDone
}

type simConn struct {
	spec      filter.ConnSpec
	consumers []*proc
	rr        uint64
	met       *metrics.Stream // nil when metrics are disabled
}

type event struct {
	at  time.Duration
	seq int
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type readyEntry struct {
	p *proc
	g grant
}

// engine is the discrete-event scheduler. Exactly one proc goroutine runs
// at any instant; the scheduler blocks while it computes, so proc state
// needs no locking.
type engine struct {
	graph     *filter.Graph
	topo      *Topology
	ctx       context.Context
	depth     int
	scale     float64
	overhead  int
	metricsOn bool

	procs  []*proc
	byName map[string][]*proc
	conns  map[string]*simConn

	ops      chan op
	events   eventHeap
	seq      int
	clock    time.Duration
	linkBusy map[int]time.Duration
	cpuBusy  map[int]time.Duration
	ready    []readyEntry
	nDone    int
	failErr  error
}

func (e *engine) schedule(at time.Duration, fn func()) {
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, fn: fn})
}

func (e *engine) readyPush(p *proc, g grant) {
	e.ready = append(e.ready, readyEntry{p: p, g: g})
}

// runLoop drives the simulation to completion.
func (e *engine) runLoop() {
	for _, p := range e.procs {
		e.readyPush(p, grant{ok: true})
	}
	for e.nDone < len(e.procs) && e.failErr == nil {
		if err := e.ctx.Err(); err != nil {
			e.failErr = err
			break
		}
		if len(e.ready) > 0 {
			re := e.ready[0]
			e.ready = e.ready[1:]
			e.resumeProc(re)
			continue
		}
		if e.events.Len() == 0 {
			e.failErr = e.deadlockError()
			break
		}
		ev := heap.Pop(&e.events).(event)
		if ev.at > e.clock {
			e.clock = ev.at
		}
		ev.fn()
	}
	if e.failErr != nil {
		e.abort()
	}
}

func (e *engine) deadlockError() error {
	blocked := ""
	for _, p := range e.procs {
		if p.done {
			continue
		}
		state := "suspended"
		if p.recvWaiting {
			state = "recv"
		}
		blocked += fmt.Sprintf(" %s[%d]:%s", p.name, p.copyIdx, state)
	}
	return fmt.Errorf("cluster: simulation deadlock; blocked:%s", blocked)
}

// resumeProc hands control to a proc and processes its next request.
func (e *engine) resumeProc(re readyEntry) {
	re.p.wallStart = time.Now()
	re.p.resume <- re.g
	o := <-e.ops
	// Charge the compute segment the proc just executed. A node's CPU is a
	// shared resource: compute segments of copies co-located on the same
	// (single-processor) node are serialized against each other, exactly as
	// the paper notes for its PIII nodes ("the CPU has to multiplex between
	// the two filters and its power has to be shared").
	wall := time.Since(o.p.wallStart)
	charge := time.Duration(float64(wall) * e.scale / o.p.speed)
	o.p.led.Busy.Add(int64(charge))
	if charge > 0 {
		start := e.clock
		if busy := e.cpuBusy[o.p.node]; busy > start {
			start = busy
		}
		at := start + charge
		e.cpuBusy[o.p.node] = at
		e.schedule(at, func() { e.applyOp(o, at) })
	} else {
		e.applyOp(o, e.clock)
	}
}

// applyOp performs the effect of an op at virtual time t (== e.clock).
func (e *engine) applyOp(o op, t time.Duration) {
	switch o.kind {
	case opDone:
		o.p.done = true
		e.nDone++
		if o.err != nil && e.failErr == nil {
			e.failErr = o.err
		}
	case opRecv:
		p := o.p
		if len(p.queue) > 0 {
			m := p.queue[0]
			p.queue = p.queue[1:]
			p.pending--
			e.processWaiters(p, t)
			e.readyPush(p, grant{msg: m, ok: true})
			return
		}
		p.recvWaiting = true
		p.recvStart = t
	case opSend:
		target, err := e.resolveTarget(o)
		if err != nil {
			// Surface as run failure; the sender is resumed aborted.
			if e.failErr == nil {
				e.failErr = err
			}
			e.readyPush(o.p, grant{aborted: true})
			return
		}
		if target.pending < e.depth {
			e.accept(o.p, target, o.msg, t)
			if !o.msg.eos {
				o.conn.met.ObserveSend(int64(o.msg.bytes), 0, int64(target.pending))
			}
			e.readyPush(o.p, grant{ok: true})
			return
		}
		target.sendWaiters = append(target.sendWaiters, sendWait{from: o.p, conn: o.conn, msg: o.msg, start: t})
	}
}

// resolveTarget picks the consumer copy per the connection policy.
func (e *engine) resolveTarget(o op) (*proc, error) {
	cs := o.conn
	if o.toCopy >= 0 {
		if o.toCopy >= len(cs.consumers) {
			return nil, fmt.Errorf("cluster: %s.%s copy %d out of range", cs.spec.From, cs.spec.FromPort, o.toCopy)
		}
		return cs.consumers[o.toCopy], nil
	}
	switch cs.spec.Policy {
	case filter.RoundRobin:
		t := cs.consumers[int(cs.rr)%len(cs.consumers)]
		cs.rr++
		return t, nil
	case filter.DemandDriven:
		// DataCutter's demand-driven scheduler assigns each buffer "based on
		// the buffer consumption rate of the transparent filter copies" — to
		// the copy likely to process it soonest. We estimate each copy's
		// completion time for this buffer as (queue+1) × its observed mean
		// service time, plus the nominal transfer cost of reaching it (zero
		// when co-located, latency + bytes/bandwidth otherwise). Live link
		// backlog is deliberately not consulted: a consumption-rate
		// scheduler has no view of the network's instantaneous state.
		score := func(p *proc) time.Duration {
			var svc time.Duration
			if n := p.led.MsgsIn.Load(); n > 0 {
				svc = time.Duration(p.led.Busy.Load() / n)
			}
			if svc <= 0 {
				svc = 1 // unmeasured: order by queue length and transfer
			}
			total := time.Duration(p.pending+1) * svc
			if p.node != o.p.node {
				l := e.topo.LinkOf(o.p.node, p.node)
				total += l.Latency + l.transferTime(o.msg.bytes)
			}
			return total
		}
		best := cs.consumers[0]
		bestScore := score(best)
		for _, cand := range cs.consumers[1:] {
			if s := score(cand); s < bestScore {
				best, bestScore = cand, s
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("cluster: port %s.%s is explicit; use SendTo", cs.spec.From, cs.spec.FromPort)
}

// accept takes the credit (pending slot) and starts the transfer.
func (e *engine) accept(from, to *proc, m simMsg, t time.Duration) {
	to.pending++
	if from.node == to.node {
		// Co-located: pointer hand-off, no network cost.
		e.deliver(to, m, t)
		return
	}
	link := e.topo.LinkOf(from.node, to.node)
	occupancy := link.transferTime(m.bytes)
	if link.Latency == 0 && occupancy == 0 {
		// Zero-cost path (e.g. two processors of the same physical box):
		// memory hand-off, never queued behind the box's network interface.
		e.deliver(to, m, t)
		return
	}
	start := t
	if busy := e.linkBusy[link.ID]; busy > start {
		start = busy
	}
	e.linkBusy[link.ID] = start + occupancy
	arrival := start + link.Latency + occupancy
	e.schedule(arrival, func() { e.deliver(to, m, arrival) })
}

// deliver places an arrived buffer in the consumer's queue, or hands it
// straight to a blocked receiver.
func (e *engine) deliver(to *proc, m simMsg, t time.Duration) {
	if to.recvWaiting {
		to.recvWaiting = false
		to.pending--
		to.led.BlockedRecv.Add(int64(t - to.recvStart))
		e.processWaiters(to, t)
		e.readyPush(to, grant{msg: m, ok: true})
		return
	}
	to.queue = append(to.queue, m)
}

// processWaiters admits blocked senders while credit is available.
func (e *engine) processWaiters(to *proc, t time.Duration) {
	for to.pending < e.depth && len(to.sendWaiters) > 0 {
		w := to.sendWaiters[0]
		to.sendWaiters = to.sendWaiters[1:]
		w.from.led.StalledSend.Add(int64(t - w.start))
		e.accept(w.from, to, w.msg, t)
		if !w.msg.eos {
			// The credit wait is virtual time, like every engine-measured
			// duration under simulation.
			w.conn.met.ObserveSend(int64(w.msg.bytes), t-w.start, int64(to.pending))
		}
		e.readyPush(w.from, grant{ok: true})
	}
}

// abort releases every live proc with an aborted grant and waits for all of
// them to finish.
func (e *engine) abort() {
	for _, p := range e.procs {
		if !p.done {
			p.resume <- grant{aborted: true}
		}
	}
	for e.nDone < len(e.procs) {
		o := <-e.ops
		if o.kind == opDone {
			o.p.done = true
			e.nDone++
			continue
		}
		o.p.resume <- grant{aborted: true}
	}
}

// procMain is the goroutine wrapper around one filter copy.
func (e *engine) procMain(p *proc, fs filter.FilterSpec) {
	g := <-p.resume // initial grant
	if g.aborted {
		e.ops <- op{p: p, kind: opDone}
		return
	}
	ctx := &simCtx{e: e, p: p}
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("cluster: %s[%d] panicked: %v", p.name, p.copyIdx, r)
			}
		}()
		return fs.New(p.copyIdx).Run(ctx)
	}()
	if err == nil && !ctx.aborted {
		// End-of-stream to every consumer copy of every outgoing port.
		for _, c := range e.graph.ConnsFrom(p.name) {
			cs := e.conns[c.From+"."+c.FromPort]
			for i := range cs.consumers {
				if !ctx.sendRaw(cs, i, simMsg{port: c.ToPort, eos: true, bytes: e.overhead}) {
					break
				}
			}
		}
		// Drain unconsumed input so blocked upstream senders progress.
		for {
			if _, ok := ctx.Recv(); !ok {
				break
			}
		}
	}
	if err != nil && ctx.aborted {
		err = nil // the abort caused the failure; don't mask the original
	}
	e.ops <- op{p: p, kind: opDone, err: err}
}

// simCtx implements filter.Context on the virtual cluster.
type simCtx struct {
	e       *engine
	p       *proc
	aborted bool
	eosSeen map[string]int
	openIn  int
	started bool
}

func (c *simCtx) FilterName() string     { return c.p.name }
func (c *simCtx) CopyIndex() int         { return c.p.copyIdx }
func (c *simCtx) NumCopies() int         { return len(c.e.byName[c.p.name]) }
func (c *simCtx) Node() int              { return c.p.node }
func (c *simCtx) Metrics() *metrics.Copy { return c.p.led.Met }

func (c *simCtx) ConsumerCopies(port string) int {
	cs, ok := c.e.conns[c.p.name+"."+port]
	if !ok {
		return 0
	}
	return len(cs.consumers)
}

// call issues an op and waits for the grant. Safe because the scheduler and
// this proc strictly alternate.
func (c *simCtx) call(o op) grant {
	c.e.ops <- o
	return <-c.p.resume
}

func (c *simCtx) Recv() (filter.Msg, bool) {
	if c.aborted {
		return filter.Msg{}, false
	}
	if !c.started {
		c.started = true
		c.eosSeen = map[string]int{}
		for _, n := range c.p.eosExpect {
			if n > 0 {
				c.openIn++
			}
		}
	}
	for c.openIn > 0 {
		g := c.call(op{p: c.p, kind: opRecv})
		if g.aborted {
			c.aborted = true
			return filter.Msg{}, false
		}
		m := g.msg
		if m.eos {
			c.eosSeen[m.port]++
			if c.eosSeen[m.port] == c.p.eosExpect[m.port] {
				c.openIn--
			}
			continue
		}
		c.p.led.MsgsIn.Inc()
		c.p.led.BytesIn.Add(int64(m.bytes))
		return filter.Msg{Port: m.port, Payload: m.payload}, true
	}
	return filter.Msg{}, false
}

func (c *simCtx) Send(port string, p filter.Payload) error {
	return c.sendCommon(port, -1, p)
}

func (c *simCtx) SendTo(port string, copy int, p filter.Payload) error {
	if copy < 0 {
		return fmt.Errorf("cluster: negative copy index %d", copy)
	}
	return c.sendCommon(port, copy, p)
}

func (c *simCtx) sendCommon(port string, copy int, p filter.Payload) error {
	if c.aborted {
		return fmt.Errorf("cluster: run aborted")
	}
	if p == nil {
		return fmt.Errorf("cluster: %s sent nil payload on %q", c.p.name, port)
	}
	cs, ok := c.e.conns[c.p.name+"."+port]
	if !ok {
		return fmt.Errorf("cluster: %s has no connection on port %q", c.p.name, port)
	}
	if copy < 0 && cs.spec.Policy == filter.Explicit {
		return fmt.Errorf("cluster: port %s.%s is explicit; use SendTo", c.p.name, port)
	}
	// Size the payload before the send: once delivered the consumer owns it
	// and may recycle its buffers (see filters.ParamMsg.Recycle).
	size := p.SizeBytes()
	m := simMsg{port: cs.spec.ToPort, payload: p, bytes: size + c.e.overhead}
	if !c.sendRaw(cs, copy, m) {
		return fmt.Errorf("cluster: run aborted")
	}
	c.p.led.MsgsOut.Inc()
	c.p.led.BytesOut.Add(int64(size))
	return nil
}

// sendRaw issues the send op; it reports false when the run was aborted.
func (c *simCtx) sendRaw(cs *simConn, copy int, m simMsg) bool {
	g := c.call(op{p: c.p, kind: opSend, conn: cs, toCopy: copy, msg: m})
	if g.aborted {
		c.aborted = true
		return false
	}
	return true
}

package filter

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/resilience"
)

// RunTCP executes the graph with one loopback TCP endpoint per node:
// buffers between co-located filter copies are handed over by pointer
// exactly as in RunLocal, while buffers crossing nodes are serialized in
// length-headed binary frames and travel through real TCP sockets — the
// transport split DataCutter makes between co-located and remote filters.
//
// All filter copies still run in this process (each node is a router, not a
// separate OS process), so the engine exercises real serialization and
// kernel socket behaviour while remaining a single testable binary. Payload
// types crossing nodes carry a binary encoding (WirePayload) or are
// registered with encoding/gob for the per-message fallback.
func RunTCP(g *Graph, opts *Options) (*metrics.RunReport, error) {
	return RunTCPContext(context.Background(), g, opts)
}

// RunTCPContext is RunTCP under a context: on cancellation every copy winds
// down, receive loops drain their sockets so no sender stays blocked inside
// a partial write, and the run returns ctx's error with the report of what
// ran so far.
func RunTCPContext(ctx context.Context, g *Graph, opts *Options) (*metrics.RunReport, error) {
	if opts != nil && opts.WireCodec != CodecBinary {
		return nil, fmt.Errorf("filter: unknown wire codec %d", int(opts.WireCodec))
	}
	rt, err := newRuntime(g, opts, nil)
	if err != nil {
		return nil, err
	}
	tr, err := newTCPTransport(rt, g.NumNodes(), opts)
	if err != nil {
		return nil, err
	}
	rt.trans = tr
	rt.engine = "tcp"
	rep, err := rt.run(ctx)
	tr.wait()
	return rep, err
}

// envelope is the wire format of one buffer crossing nodes. FromNode lets
// the receiver attribute wire traffic to the ordered node pair. Seq is the
// per-ordered-node-pair sequence number, stamped only when the link retries
// (Seq 0 means no duplicate suppression): a retransmitted envelope
// keeps its number, so the receiver drops the copy it already enqueued.
type envelope struct {
	FromNode int
	ToFilter string
	ToCopy   int
	Port     string
	EOS      bool
	Seq      uint64
	Payload  Payload
}

// countingWriter counts bytes written through it. It is used under the
// owning tcpConn's mutex, so a plain int64 suffices.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countingReader counts bytes read through it. Each instance is owned by a
// single receive-loop goroutine.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// tcpTransport maintains one TCP connection per ordered node pair that the
// graph actually uses, created lazily on first send.
type tcpTransport struct {
	rt        *runtime
	retry     resilience.Retry // zero: single-attempt sends
	send      time.Duration    // per-attempt write deadline; 0 = none
	recv      time.Duration    // frame-body read deadline; 0 = none
	wrap      func(net.Conn, int, int) net.Conn
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex
	conns map[[2]int]*tcpConn

	// prices holds each ordered node pair's linkPrice at from·nodes + to,
	// and pool all of them together; start is the origin of their clock.
	nodes  int
	prices []linkPrice
	pool   linkPrice
	start  time.Time

	// streams resequences arrivals per ordered node pair. It outlives
	// individual sockets: when a broken connection is replaced, its last
	// successfully-written frames can still be in flight while retransmitted
	// frames arrive over the fresh socket, so the receiver delivers strictly
	// in sequence order — retransmitted duplicates are dropped, and frames
	// that arrive early wait for the stragglers from the dying socket.
	seqMu   sync.Mutex
	streams map[[2]int]*pairStream

	// Per ordered node pair network metrics, shared between the sending side
	// (Out fields, Send timer) and the receiving loop (In fields, Recv
	// timer). Nil values never enter the map.
	metMu sync.Mutex
	mets  map[[2]int]*metrics.Conn

	// Per ordered node pair resilience state (breaker + shared retry
	// budget), keyed by pairKey; nil when no policy was given. The set is
	// shared by every copy sending over the link, and by dial and envelope
	// retries alike — that sharing is what makes the retry cap storm-proof.
	res *resilience.Registry

	recvWG   sync.WaitGroup
	closed   bool
	closeErr error
}

type tcpConn struct {
	tr       *tcpTransport
	from, to int

	mu  sync.Mutex
	c   net.Conn // replaced in place on redial, under mu
	cw  *countingWriter
	buf []byte // frame scratch, reused under mu
	met *metrics.Conn
	res *resilience.Set // pair breaker/budget; nil when not configured
	seq uint64          // last stamped sequence number (retry mode)
	rng *rand.Rand      // pair-seeded backoff jitter, used under mu
}

// linkPrice is one ordered node pair's measured cost of carrying payload:
// the nanoseconds its buffers spent being encoded by the sender, and being
// read off the socket and decoded by the receiver once their frame began to
// arrive, over the payload bytes they carried. Waits that are not the link's
// own fall outside both timed spans: a sender's retry backoff, redials and
// failed attempts, and a receiver blocked on its consumer's full queue,
// which the demand-driven score already counts as that copy's queue.
type linkPrice struct {
	ns, bytes atomic.Int64
	last      atomic.Int64 // when the last span ended, ns since the transport started
}

// minPricedBytes is the smallest buffer that prices a link: below it a
// message's fixed costs, not its bytes, set its time.
const minPricedBytes = 64 << 10

// priceHalfLife is how long an unused link takes to lose half its price:
// long against one buffer's transfer, short against a run that streams a
// disk-resident dataset.
const priceHalfLife = time.Second

func newTCPTransport(rt *runtime, nodes int, opts *Options) (*tcpTransport, error) {
	tr := &tcpTransport{
		rt:      rt,
		conns:   map[[2]int]*tcpConn{},
		mets:    map[[2]int]*metrics.Conn{},
		streams: map[[2]int]*pairStream{},
		nodes:   nodes,
		prices:  make([]linkPrice, nodes*nodes),
		start:   time.Now(),
	}
	if opts != nil {
		if p := opts.Resilience; p != nil {
			tr.retry = p.Retry
			tr.res = resilience.NewRegistry(p)
		}
		tr.send, tr.recv = opts.SendTimeout, opts.RecvTimeout
		tr.wrap = opts.WrapConn
	}
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("filter: tcp listen: %w", err)
		}
		tr.listeners = append(tr.listeners, ln)
		tr.addrs = append(tr.addrs, ln.Addr().String())
		tr.recvWG.Add(1)
		go tr.acceptLoop(ln, i)
	}
	return tr, nil
}

// price returns the a→b link's price, nil for a node outside the run.
func (tr *tcpTransport) price(a, b int) *linkPrice {
	if a < 0 || b < 0 || a >= tr.nodes || b >= tr.nodes {
		return nil
	}
	return &tr.prices[a*tr.nodes+b]
}

// record adds a timed span of the a→b link's work on a buffer of the given
// payload bytes, ended at now, to the link's price and the pool; the
// sender's span counts the bytes, the receiver's only its time. Buffers
// under minPricedBytes are not recorded.
func (tr *tcpTransport) record(a, b int, now, d time.Duration, bytes int, sender bool) {
	p := tr.price(a, b)
	if p == nil || bytes < minPricedBytes {
		return
	}
	for _, q := range []*linkPrice{p, &tr.pool} {
		q.ns.Add(int64(d))
		if sender {
			q.bytes.Add(int64(bytes))
		}
	}
	p.last.Store(int64(now))
}

// cost prices bytes of payload over the a→b link at now: its nanoseconds
// per byte so far, or the pool's while it has priced nothing itself, times
// the bytes, halved for every priceHalfLife since the link's last span — for
// a link that has carried nothing, since the transport started — so a link
// priced high by one stall is tried again. Zero until some link has carried
// a buffer.
func (tr *tcpTransport) cost(a, b int, now time.Duration, bytes int) time.Duration {
	p := tr.price(a, b)
	if p == nil {
		return 0
	}
	ns, n := p.ns.Load(), p.bytes.Load()
	if n == 0 {
		ns, n = tr.pool.ns.Load(), tr.pool.bytes.Load()
	}
	if n == 0 {
		return 0
	}
	age := max(now-time.Duration(p.last.Load()), 0)
	return time.Duration(float64(ns) / float64(n) * float64(bytes) * math.Exp2(-float64(age)/float64(priceHalfLife)))
}

// connMetric returns the shared metric set for the ordered node pair.
func (tr *tcpTransport) connMetric(from, to int) *metrics.Conn {
	key := [2]int{from, to}
	tr.metMu.Lock()
	defer tr.metMu.Unlock()
	m, ok := tr.mets[key]
	if !ok {
		m = &metrics.Conn{}
		tr.mets[key] = m
	}
	return m
}

// unknownNode is the sending node of the network row that counts receive
// errors on sockets that broke before any whole frame named their sender.
const unknownNode = -1

// pairKey names an ordered node pair in the resilience registry.
func pairKey(from, to int) string { return fmt.Sprintf("%d->%d", from, to) }

// retrying reports whether the links retry, and so stamp sequence numbers.
func (tr *tcpTransport) retrying() bool { return tr.retry.Attempts > 1 }

// netReport snapshots per-connection activity for the run report, ordered by
// (from, to) node pair.
func (tr *tcpTransport) netReport() []metrics.ConnReport {
	tr.metMu.Lock()
	defer tr.metMu.Unlock()
	keys := make([][2]int, 0, len(tr.mets))
	for k := range tr.mets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	sets := tr.res.Snapshot()
	out := make([]metrics.ConnReport, 0, len(keys))
	for _, k := range keys {
		m := tr.mets[k]
		cr := metrics.ConnReport{
			FromNode:     k[0],
			ToNode:       k[1],
			MsgsOut:      m.MsgsOut.Load(),
			WireBytesOut: m.WireBytesOut.Load(),
			SendNS:       m.Send.Stat().TotalNS,
			MsgsIn:       m.MsgsIn.Load(),
			WireBytesIn:  m.WireBytesIn.Load(),
			RecvNS:       m.Recv.Stat().TotalNS,
			Retries:      m.Retries.Load(),
			Redials:      m.Redials.Load(),
			DupsDropped:  m.DupsDropped.Load(),
			RecvErrors:   m.RecvErrors.Load(),
		}
		rs := sets[pairKey(k[0], k[1])]
		cr.BreakerState, cr.BreakerTrips, cr.BreakerProbes = rs.BreakerState, rs.BreakerTrips, rs.BreakerProbes
		cr.BudgetSpent, cr.BudgetDenied = rs.BudgetSpent, rs.BudgetDenied
		out = append(out, cr)
	}
	return out
}

func (tr *tcpTransport) acceptLoop(ln net.Listener, node int) {
	defer tr.recvWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		tr.recvWG.Add(1)
		go tr.recvLoop(conn, node)
	}
}

// frameDecoder reads one envelope per call from a connection: a u32 length
// prefix followed by the frame body, read with exactly two ReadFull calls so
// the counting reader's per-message byte attribution stays exact. io.EOF
// between envelopes means a clean close. When a receive timeout is
// configured, the frame body is read under a deadline — a torn frame from a
// dead sender surfaces as an error instead of hanging the loop.
type frameDecoder struct {
	r           io.Reader
	conn        net.Conn // deadline control; nil when timeouts are off
	bodyTimeout time.Duration
	hdr         [4]byte
	buf         []byte        // frame scratch, reused across messages
	took        time.Duration // the last frame's body read and decode
}

func (d *frameDecoder) next() (envelope, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return envelope{}, err
	}
	start := time.Now()
	n := int(binaryFrameLen(d.hdr))
	if n > maxWireFrame {
		return envelope{}, fmt.Errorf("filter: tcp frame of %d bytes exceeds limit", n)
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if d.conn != nil && d.bodyTimeout > 0 {
		d.conn.SetReadDeadline(time.Now().Add(d.bodyTimeout))
		defer d.conn.SetReadDeadline(time.Time{})
	}
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return envelope{}, err
	}
	env, err := decodeEnvelope(d.buf)
	d.took = time.Since(start)
	return env, err
}

// recvLoop decodes envelopes arriving at one node's endpoint and enqueues
// them at the destination copy. The Recv timer includes socket wait, so on a
// mostly idle connection it approaches the connection's lifetime; WireBytesIn
// is exact. After the run aborts the loop keeps decoding and discarding
// envelopes instead of returning: a remote sender blocked inside a partial
// encode (which cannot observe the abort) would otherwise never finish
// its write, and the engine's shutdown would deadlock.
func (tr *tcpTransport) recvLoop(conn net.Conn, node int) {
	defer tr.recvWG.Done()
	cr := &countingReader{r: conn}
	dec := &frameDecoder{r: cr}
	if tr.recv > 0 {
		dec.conn, dec.bodyTimeout = conn, tr.recv
	}
	var met *metrics.Conn
	var lastBytes int64
	dropping := false
	for {
		start := time.Now()
		env, err := dec.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !tr.isClosed() && !dropping {
				if tr.retrying() {
					// A torn frame from a broken sender: drop this socket and
					// rely on the sender's retransmission over a fresh one —
					// the pair resequencer drops anything already delivered.
					// Until a whole frame has named the sender, the error
					// counts on the node's row for an unknown sender.
					if met == nil {
						met = tr.connMetric(unknownNode, node)
					}
					met.RecvErrors.Inc()
					conn.Close()
					return
				}
				tr.rt.fail(fmt.Errorf("filter: tcp decode: %w", err))
			}
			return
		}
		if env.Payload != nil {
			tr.record(env.FromNode, node, time.Since(tr.start), dec.took, env.Payload.SizeBytes(), false)
		}
		if met == nil {
			met = tr.connMetric(env.FromNode, node)
		}
		met.Recv.Add(time.Since(start))
		met.MsgsIn.Inc()
		met.WireBytesIn.Add(cr.n - lastBytes)
		lastBytes = cr.n
		batch := []envelope{env}
		if env.Seq > 0 {
			ready, dup := tr.sequence(env.FromNode, node, env)
			if dup {
				met.DupsDropped.Inc()
				continue
			}
			batch = ready // may be empty: held back until the gap fills
		}
		if dropping {
			continue
		}
		for _, env := range batch {
			copies, ok := tr.rt.copies[env.ToFilter]
			if !ok || env.ToCopy < 0 || env.ToCopy >= len(copies) {
				tr.rt.fail(fmt.Errorf("filter: tcp envelope for unknown copy %s[%d]", env.ToFilter, env.ToCopy))
				dropping = true
				break
			}
			m := inMsg{port: env.Port, payload: env.Payload, eos: env.EOS}
			if env.Payload != nil {
				m.size = env.Payload.SizeBytes()
			}
			if err := tr.rt.enqueueLocal(copies[env.ToCopy], m); err != nil {
				dropping = true // run aborted; drain until the connection closes
				break
			}
		}
	}
}

func (tr *tcpTransport) isClosed() bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.closed
}

// pairStream holds one ordered node pair's delivery state: the next
// sequence number owed to the runtime and any frames that arrived ahead of
// it over a fresh socket while stragglers from a replaced socket were still
// in flight.
type pairStream struct {
	next uint64              // lowest sequence number not yet delivered
	held map[uint64]envelope // arrived early, waiting for the gap to fill
}

// sequence admits env into the pair's ordered stream. It returns the
// consecutive run of envelopes now ready for delivery (empty while a gap is
// outstanding) or dup=true for a frame that was already delivered or is
// already being held. Gap frames are guaranteed to arrive eventually: the
// sender closes a socket only after its writes succeeded (the orderly
// shutdown flushes buffered frames) or retransmits the failed envelope over
// the replacement connection.
func (tr *tcpTransport) sequence(from, to int, env envelope) (ready []envelope, dup bool) {
	key := [2]int{from, to}
	tr.seqMu.Lock()
	defer tr.seqMu.Unlock()
	ps := tr.streams[key]
	if ps == nil {
		ps = &pairStream{next: 1}
		tr.streams[key] = ps
	}
	if env.Seq < ps.next {
		return nil, true
	}
	if env.Seq > ps.next {
		if _, exists := ps.held[env.Seq]; exists {
			return nil, true
		}
		if ps.held == nil {
			ps.held = map[uint64]envelope{}
		}
		ps.held[env.Seq] = env
		return nil, false
	}
	ready = append(ready, env)
	ps.next++
	for {
		e, ok := ps.held[ps.next]
		if !ok {
			break
		}
		delete(ps.held, ps.next)
		ready = append(ready, e)
		ps.next++
	}
	return ready, false
}

// retry runs one link operation — a dial or an envelope send — under the
// links' retry schedule, funded by the pair's shared set and jittered by the
// pair's source. A run abort ends it with errStopped.
func (c *tcpConn) retry(try func(attempt int) error) error {
	err := c.tr.retry.Do(doneCtx{done: c.tr.rt.done}, c.res, c.rng, c.met.Retries.Inc,
		func(attempt int) (time.Duration, error) { return 0, try(attempt) })
	if errors.Is(err, context.Canceled) {
		return errStopped
	}
	return err
}

// dial establishes the link's socket under the retry schedule. Each
// attempt's outcome feeds the pair breaker.
func (c *tcpConn) dial() error {
	var conn net.Conn
	err := c.retry(func(int) (err error) {
		conn, err = c.dialOnce()
		c.res.Record(resilience.Token{}, err)
		return err
	})
	if err != nil {
		return fmt.Errorf("filter: tcp dial node %d: %w", c.to, err)
	}
	c.cw = &countingWriter{}
	c.attach(conn)
	return nil
}

// dialOnce makes one dial attempt and applies the fault-injection hook.
func (c *tcpConn) dialOnce() (net.Conn, error) {
	conn, err := net.Dial("tcp", c.tr.addrs[c.to])
	if err == nil && c.tr.wrap != nil {
		conn = c.tr.wrap(conn, c.from, c.to)
	}
	return conn, err
}

// attach makes conn the link's socket. The counting writer is retargeted in
// place, so cumulative byte counts continue.
func (c *tcpConn) attach(conn net.Conn) {
	c.c = conn
	c.cw.w = conn
}

// connTo returns (dialing if necessary) the connection from one node to
// another. Dialing happens outside the transport lock: with retries enabled
// a dial may back off and sleep, which must not stall unrelated node pairs
// or the transport's shutdown.
func (tr *tcpTransport) connTo(from, to int) (*tcpConn, error) {
	key := [2]int{from, to}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return nil, errStopped
	}
	if c, ok := tr.conns[key]; ok {
		tr.mu.Unlock()
		return c, nil
	}
	tr.mu.Unlock()

	c := &tcpConn{tr: tr, from: from, to: to, met: tr.connMetric(from, to), res: tr.res.For(pairKey(from, to))}
	if tr.retrying() {
		c.rng = resilience.Jitter(from, to)
	}
	if err := c.dial(); err != nil {
		return nil, err
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		c.c.Close()
		return nil, errStopped
	}
	if prev, ok := tr.conns[key]; ok { // lost a concurrent dial race
		tr.mu.Unlock()
		c.c.Close()
		return prev, nil
	}
	tr.conns[key] = c
	tr.mu.Unlock()
	return c, nil
}

func (tr *tcpTransport) deliver(from, to *copyState, m inMsg) error {
	c, err := tr.connTo(from.node, to.node)
	if err != nil {
		return err
	}
	env := envelope{FromNode: from.node, ToFilter: to.filter, ToCopy: to.copyIdx, Port: m.port, EOS: m.eos, Payload: m.payload}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Ask the pair breaker before a sequence number is consumed: an
	// abandoned envelope must not leave a gap in the pair stream for the
	// receiver's resequencer to wait on. An open link fails the send
	// immediately — the copy dies and failover redistributes its work —
	// instead of burning redials against a dead peer.
	tok, err := c.res.Allow()
	if err != nil {
		return fmt.Errorf("filter: tcp link node %d->%d: %w", c.from, c.to, err)
	}
	if tr.retrying() {
		c.seq++
		env.Seq = c.seq
	}
	start, before := time.Now(), c.cw.n
	encode, err := c.writeEnvelope(&env, to, tok)
	if err != nil {
		return err
	}
	tr.record(c.from, c.to, time.Since(tr.start), encode, m.size, true)
	c.met.Send.Add(time.Since(start))
	c.met.MsgsOut.Inc()
	c.met.WireBytesOut.Add(c.cw.n - before)
	// The frame is written and the receiver decodes its own copy, so the
	// sender's buffers go back to their pools now instead of to the GC.
	if r, ok := m.payload.(interface{ Recycle() }); ok {
		r.Recycle()
	}
	return nil
}

// writeEnvelope encodes and writes one envelope under c.mu. When the link
// retries, a failed write closes the socket, and the next attempt redials
// and retransmits the same envelope (same sequence number) over the fresh
// connection; the receiver's pair resequencer drops any duplicate. The
// envelope's one outcome goes to the pair breaker under the token deliver
// was granted. It returns how long the encode took.
func (c *tcpConn) writeEnvelope(env *envelope, to *copyState, tok resilience.Token) (time.Duration, error) {
	// The frame is encoded once and retransmitted byte-identically.
	start := time.Now()
	buf, err := appendEnvelope(c.buf[:0], env)
	if err != nil {
		return 0, fmt.Errorf("filter: tcp encode to %s[%d]: %w", to.filter, to.copyIdx, err)
	}
	encode := time.Since(start)
	c.buf = buf // keep the grown scratch for the next message
	err = c.retry(func(attempt int) error {
		if attempt > 0 {
			if err := c.redial(); err != nil {
				return err
			}
		}
		if err := c.writeOnce(); err != nil {
			c.c.Close() // poison the socket so the next attempt redials
			return err
		}
		return nil
	})
	if err == errStopped {
		// Shutdown verdicts say nothing about the link; release a granted
		// half-open probe without recording an outcome.
		c.res.Cancel(tok)
		return 0, err
	}
	c.res.Record(tok, err)
	if err != nil {
		return 0, fmt.Errorf("filter: tcp write to %s[%d]: %w", to.filter, to.copyIdx, err)
	}
	return encode, nil
}

// writeOnce performs a single framed write under the link's send deadline.
func (c *tcpConn) writeOnce() error {
	if d := c.tr.send; d > 0 {
		c.c.SetWriteDeadline(time.Now().Add(d))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	_, err := c.cw.Write(c.buf)
	return err
}

// redial replaces the broken socket with a fresh one.
func (c *tcpConn) redial() error {
	conn, err := c.dialOnce()
	if err != nil {
		return fmt.Errorf("filter: tcp redial node %d: %w", c.to, err)
	}
	c.c.Close()
	c.attach(conn)
	c.met.Redials.Inc()
	return nil
}

// transfer is what carrying bytes of payload over the a→b link is measured
// to cost (see cost). Until some link has carried a buffer it is zero, and
// the score weighs queues and service times, and locality only as a
// tie-break.
func (tr *tcpTransport) transfer(a, b, bytes int) time.Duration {
	return tr.cost(a, b, time.Since(tr.start), bytes)
}

func (tr *tcpTransport) close() error {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return tr.closeErr
	}
	tr.closed = true
	for _, ln := range tr.listeners {
		if err := ln.Close(); err != nil && tr.closeErr == nil {
			tr.closeErr = err
		}
	}
	for _, c := range tr.conns {
		c.mu.Lock() // c.c is replaced under c.mu on redial
		err := c.c.Close()
		c.mu.Unlock()
		if err != nil && tr.closeErr == nil {
			tr.closeErr = err
		}
	}
	tr.mu.Unlock()
	return tr.closeErr
}

// wait blocks until all receive loops have exited (after close).
func (tr *tcpTransport) wait() { tr.recvWG.Wait() }

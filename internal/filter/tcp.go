package filter

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"haralick4d/internal/metrics"
	"haralick4d/internal/resilience"
)

// RunTCP executes the graph with one loopback TCP endpoint per node:
// buffers between co-located filter copies are handed over by pointer
// exactly as in RunLocal, while buffers crossing nodes are serialized with
// the configured wire codec (Options.WireCodec, gob by default) and travel
// through real TCP sockets — the transport split DataCutter makes between
// co-located and remote filters.
//
// All filter copies still run in this process (each node is a router, not a
// separate OS process), so the engine exercises real serialization and
// kernel socket behaviour while remaining a single testable binary. Payload
// types crossing nodes must be registered with encoding/gob.
func RunTCP(g *Graph, opts *Options) (*RunStats, error) {
	return RunTCPContext(context.Background(), g, opts)
}

// RunTCPContext is RunTCP under a context: on cancellation every copy winds
// down, receive loops drain their sockets so no sender stays blocked inside
// a partial write, and the run returns ctx's error with the statistics
// gathered so far.
func RunTCPContext(ctx context.Context, g *Graph, opts *Options) (*RunStats, error) {
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
	stats, err := rt.run(ctx)
	tr.wait()
	return stats, err
}

// envelope is the wire format of one buffer crossing nodes. FromNode lets
// the receiver attribute wire traffic to the ordered node pair. Seq is the
// per-ordered-node-pair sequence number, stamped only when a RetryPolicy is
// active (Seq 0 means no duplicate suppression): a retransmitted envelope
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

func init() { gob.Register(envelope{}) }

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
	codec     Codec
	retry     *RetryPolicy // nil: single-attempt sends, no deadlines
	wrap      func(net.Conn, int, int) net.Conn
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex
	conns map[[2]int]*tcpConn

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
	// budget), created lazily when the retry policy configures either.
	resMu sync.Mutex
	res   map[[2]int]*resilience.Set

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
	enc *gob.Encoder    // CodecGob only; rebuilt on redial (the re-handshake)
	buf []byte          // CodecBinary frame scratch, reused under mu
	met *metrics.Conn   // nil when metrics are disabled
	res *resilience.Set // pair breaker/budget; nil when not configured
	seq uint64          // last stamped sequence number (retry mode)
	rng *rand.Rand      // seeded backoff jitter, used under mu
}

func newTCPTransport(rt *runtime, nodes int, opts *Options) (*tcpTransport, error) {
	tr := &tcpTransport{
		rt:      rt,
		codec:   opts.codec(),
		conns:   map[[2]int]*tcpConn{},
		mets:    map[[2]int]*metrics.Conn{},
		streams: map[[2]int]*pairStream{},
		res:     map[[2]int]*resilience.Set{},
	}
	if opts != nil {
		tr.retry = opts.Retry
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

// connMetric returns the shared metric set for the ordered node pair, or nil
// when metrics are disabled.
func (tr *tcpTransport) connMetric(from, to int) *metrics.Conn {
	if !tr.rt.metricsOn {
		return nil
	}
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

// pairRes returns the ordered node pair's shared resilience set, created on
// first use, or nil when the retry policy configures neither a pair budget
// nor a pair breaker. The set is shared by every copy sending over the
// link, and by dial and envelope retries alike — that sharing is what makes
// the retry cap storm-proof.
func (tr *tcpTransport) pairRes(from, to int) *resilience.Set {
	p := tr.retry
	if p == nil || (p.PairBudget == nil && p.PairBreaker == nil) {
		return nil
	}
	key := [2]int{from, to}
	tr.resMu.Lock()
	defer tr.resMu.Unlock()
	s, ok := tr.res[key]
	if !ok {
		s = &resilience.Set{}
		if p.PairBreaker != nil {
			s.Breaker = resilience.NewBreaker(*p.PairBreaker)
		}
		if p.PairBudget != nil {
			s.Budget = resilience.NewRetryBudget(p.PairBudget.Tokens, p.PairBudget.Ratio)
		}
		tr.res[key] = s
	}
	return s
}

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
		tr.resMu.Lock()
		set := tr.res[k]
		tr.resMu.Unlock()
		if set != nil {
			rs := set.Snapshot()
			cr.BreakerState = rs.BreakerState
			cr.BreakerTrips = rs.BreakerTrips
			cr.BreakerProbes = rs.BreakerProbes
			cr.BudgetSpent = rs.BudgetSpent
			cr.BudgetDenied = rs.BudgetDenied
		}
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

// envelopeDecoder reads one envelope per call from a connection, in the
// codec's wire format. io.EOF between envelopes means a clean close.
type envelopeDecoder interface {
	next() (envelope, error)
}

// gobEnvelopeDecoder is the CodecGob receive side: one gob stream per
// connection.
type gobEnvelopeDecoder struct{ dec *gob.Decoder }

func (d gobEnvelopeDecoder) next() (envelope, error) {
	var env envelope
	err := d.dec.Decode(&env)
	return env, err
}

// binaryEnvelopeDecoder is the CodecBinary receive side: a u32 length prefix
// followed by the frame body, read with exactly two ReadFull calls so the
// counting reader's per-message byte attribution stays exact. When a receive
// timeout is configured, the frame body is read under a deadline — a torn
// frame from a dead sender surfaces as an error instead of hanging the loop.
type binaryEnvelopeDecoder struct {
	r           io.Reader
	conn        net.Conn // deadline control; nil when timeouts are off
	bodyTimeout time.Duration
	hdr         [4]byte
	buf         []byte // frame scratch, reused across messages
}

func (d *binaryEnvelopeDecoder) next() (envelope, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return envelope{}, err
	}
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
	return decodeEnvelope(d.buf)
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
	var dec envelopeDecoder
	if tr.codec == CodecBinary {
		bd := &binaryEnvelopeDecoder{r: cr}
		if tr.retry != nil && tr.retry.RecvTimeout > 0 {
			bd.conn, bd.bodyTimeout = conn, tr.retry.RecvTimeout
		}
		dec = bd
	} else {
		dec = gobEnvelopeDecoder{dec: gob.NewDecoder(cr)}
	}
	var met *metrics.Conn
	var lastBytes int64
	dropping := false
	for {
		start := time.Now()
		env, err := dec.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !tr.isClosed() && !dropping {
				if tr.retry.enabled() {
					// A torn frame from a broken sender: drop this socket and
					// rely on the sender's retransmission over a fresh one —
					// the pair resequencer drops anything already delivered.
					if met != nil {
						met.RecvErrors.Inc()
					}
					conn.Close()
					return
				}
				tr.rt.fail(fmt.Errorf("filter: tcp decode: %w", err))
			}
			return
		}
		if met == nil {
			met = tr.connMetric(env.FromNode, node)
		}
		if met != nil {
			met.Recv.Add(time.Since(start))
			met.MsgsIn.Inc()
			met.WireBytesIn.Add(cr.n - lastBytes)
			lastBytes = cr.n
		}
		batch := []envelope{env}
		if env.Seq > 0 {
			ready, dup := tr.sequence(env.FromNode, node, env)
			if dup {
				if met != nil {
					met.DupsDropped.Inc()
				}
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

// pairRNG seeds the backoff-jitter source deterministically from the policy
// seed and the ordered node pair, so chaos runs reproduce exactly.
func (tr *tcpTransport) pairRNG(from, to int) *rand.Rand {
	if !tr.retry.enabled() {
		return nil
	}
	seed := tr.retry.Seed
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed<<16 ^ int64(from)<<8 ^ int64(to)))
}

// dial establishes the raw socket for an ordered node pair, retrying with
// backoff per the retry policy, and applies the fault-injection hook. Dial
// retries draw from the same pair budget as envelope retransmissions, and
// each attempt's outcome feeds the pair breaker.
func (tr *tcpTransport) dial(from, to int, rng *rand.Rand, met *metrics.Conn) (net.Conn, error) {
	set := tr.pairRes(from, to)
	attempts := 1
	if tr.retry.enabled() {
		attempts = tr.retry.MaxAttempts
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			if set != nil && !set.Budget.Withdraw() {
				lastErr = fmt.Errorf("%w, last: %v", resilience.ErrBudgetExhausted, lastErr)
				break
			}
			if met != nil {
				met.Retries.Inc()
			}
			select {
			case <-time.After(tr.retry.backoff(a-1, rng)):
			case <-tr.rt.done:
				return nil, errStopped
			}
		}
		conn, err := net.Dial("tcp", tr.addrs[to])
		if err == nil {
			if set != nil {
				if set.Breaker != nil {
					set.Breaker.Record(resilience.Token{}, nil)
				}
				set.Budget.Deposit()
			}
			if tr.wrap != nil {
				conn = tr.wrap(conn, from, to)
			}
			return conn, nil
		}
		if set != nil && set.Breaker != nil {
			set.Breaker.Record(resilience.Token{}, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("filter: tcp dial node %d: %w", to, lastErr)
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

	met := tr.connMetric(from, to)
	rng := tr.pairRNG(from, to)
	conn, err := tr.dial(from, to, rng, met)
	if err != nil {
		return nil, err
	}
	cw := &countingWriter{w: conn}
	c := &tcpConn{tr: tr, from: from, to: to, c: conn, cw: cw, met: met, res: tr.pairRes(from, to), rng: rng}
	if tr.codec != CodecBinary {
		c.enc = gob.NewEncoder(cw)
	}
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		conn.Close()
		return nil, errStopped
	}
	if prev, ok := tr.conns[key]; ok { // lost a concurrent dial race
		tr.mu.Unlock()
		conn.Close()
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
	var tok resilience.Token
	if c.res != nil && c.res.Breaker != nil {
		var aerr error
		if tok, aerr = c.res.Breaker.Allow(); aerr != nil {
			return fmt.Errorf("filter: tcp link node %d->%d: %w", c.from, c.to, aerr)
		}
	}
	if tr.retry.enabled() {
		c.seq++
		env.Seq = c.seq
	}
	var start time.Time
	before := c.cw.n
	if c.met != nil {
		start = time.Now()
	}
	if err := c.writeEnvelope(&env, to, tok); err != nil {
		return err
	}
	if c.met != nil {
		c.met.Send.Add(time.Since(start))
		c.met.MsgsOut.Inc()
		c.met.WireBytesOut.Add(c.cw.n - before)
	}
	return nil
}

// writeEnvelope encodes and writes one envelope under c.mu. With retries
// enabled a failed write closes the socket, backs off, redials, and
// retransmits the same envelope (same sequence number) over the fresh
// connection; the receiver's pair resequencer drops any duplicate.
func (c *tcpConn) writeEnvelope(env *envelope, to *copyState, tok resilience.Token) error {
	p := c.tr.retry
	binary := c.tr.codec == CodecBinary
	if binary {
		// The binary frame is encoded once and retransmitted byte-identically;
		// gob re-encodes per attempt because every reconnect restarts the gob
		// stream (the re-handshake).
		buf, err := appendEnvelope(c.buf[:0], env)
		if err != nil {
			return fmt.Errorf("filter: tcp encode to %s[%d]: %w", to.filter, to.copyIdx, err)
		}
		c.buf = buf // keep the grown scratch for the next message
	}
	attempts := 1
	if p.enabled() {
		attempts = p.MaxAttempts
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			// Every retransmission is funded by the pair's shared budget:
			// when copies across the node have drained it, the send fails
			// now rather than adding to the storm.
			if c.res != nil && !c.res.Budget.Withdraw() {
				lastErr = fmt.Errorf("%w, last: %v", resilience.ErrBudgetExhausted, lastErr)
				break
			}
			if c.met != nil {
				c.met.Retries.Inc()
			}
			select {
			case <-time.After(p.backoff(a-1, c.rng)):
			case <-c.tr.rt.done:
				// Shutdown verdicts say nothing about the link; release a
				// granted half-open probe without recording an outcome.
				if c.res != nil && c.res.Breaker != nil {
					c.res.Breaker.Cancel(tok)
				}
				return errStopped
			}
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := c.writeOnce(env, binary); err != nil {
			lastErr = err
			c.c.Close() // poison the socket so the next attempt redials
			continue
		}
		c.recordLink(tok, nil)
		return nil
	}
	c.recordLink(tok, lastErr)
	verb := "write"
	if !binary {
		verb = "encode"
	}
	if attempts > 1 {
		return fmt.Errorf("filter: tcp send to %s[%d] failed after %d attempts: %w", to.filter, to.copyIdx, attempts, lastErr)
	}
	return fmt.Errorf("filter: tcp %s to %s[%d]: %w", verb, to.filter, to.copyIdx, lastErr)
}

// recordLink reports the envelope's final outcome to the pair breaker —
// matching the Allow granted in deliver — and refunds the budget on
// success.
func (c *tcpConn) recordLink(tok resilience.Token, err error) {
	if c.res == nil {
		return
	}
	if c.res.Breaker != nil {
		c.res.Breaker.Record(tok, err)
	}
	if err == nil {
		c.res.Budget.Deposit()
	}
}

// writeOnce performs a single framed write under the policy's send deadline.
func (c *tcpConn) writeOnce(env *envelope, binary bool) error {
	if p := c.tr.retry; p != nil && p.SendTimeout > 0 {
		c.c.SetWriteDeadline(time.Now().Add(p.SendTimeout))
		defer c.c.SetWriteDeadline(time.Time{})
	}
	if binary {
		_, err := c.cw.Write(c.buf)
		return err
	}
	return c.enc.Encode(*env)
}

// redial replaces the broken socket with a fresh one. The counting writer is
// retargeted in place (cumulative byte counts continue) and the gob encoder
// is rebuilt, which restarts the type-descriptor handshake on the new stream.
func (c *tcpConn) redial() error {
	conn, err := net.Dial("tcp", c.tr.addrs[c.to])
	if err != nil {
		return fmt.Errorf("filter: tcp redial node %d: %w", c.to, err)
	}
	if c.tr.wrap != nil {
		conn = c.tr.wrap(conn, c.from, c.to)
	}
	c.c.Close()
	c.c = conn
	c.cw.w = conn
	if c.tr.codec != CodecBinary {
		c.enc = gob.NewEncoder(c.cw)
	}
	if c.met != nil {
		c.met.Redials.Inc()
	}
	return nil
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

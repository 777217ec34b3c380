package fault

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/filter"
	"haralick4d/internal/resilience"
)

func TestPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{FailFast, SkipDegraded} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy("skip"); err != nil || p != SkipDegraded {
		t.Error("skip alias broken")
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// drained returns a net.Pipe endpoint whose peer discards everything, so
// writes never block.
func drained(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go io.Copy(io.Discard, b)
	return a
}

func TestFlakyConn(t *testing.T) {
	fc := &FlakyConn{Conn: drained(t), FailAt: 2, Partial: 3}
	if n, err := fc.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("first write: %d, %v", n, err)
	}
	if fc.Broken() {
		t.Fatal("broken before FailAt")
	}
	n, err := fc.Write([]byte("world!"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("second write err = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("partial write delivered %d bytes, want 3", n)
	}
	if !fc.Broken() {
		t.Fatal("not broken after FailAt")
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on broken conn err = %v, want ErrInjected", err)
	}
}

func TestFlakyConnNeverFails(t *testing.T) {
	fc := &FlakyConn{Conn: drained(t)}
	for i := 0; i < 10; i++ {
		if _, err := fc.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fc.Broken() {
		t.Fatal("FailAt 0 broke")
	}
}

func TestCorruptReaderAt(t *testing.T) {
	r := &CorruptReaderAt{R: strings.NewReader("abcdef"), Off: 2}
	buf := make([]byte, 6)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 'c'^0xFF || buf[0] != 'a' || buf[3] != 'd' {
		t.Fatalf("corrupted read = %q", buf)
	}
	// A read window not covering Off is untouched.
	if _, err := r.ReadAt(buf[:2], 3); err != nil {
		t.Fatal(err)
	}
	if string(buf[:2]) != "de" {
		t.Fatalf("clean window = %q", buf[:2])
	}
}

func TestTruncatedReaderAt(t *testing.T) {
	r := &TruncatedReaderAt{R: strings.NewReader("abcdef"), N: 4}
	buf := make([]byte, 6)
	n, err := r.ReadAt(buf, 0)
	if n != 4 || err != io.EOF {
		t.Fatalf("read across cut: %d, %v", n, err)
	}
	if n, err := r.ReadAt(buf, 5); n != 0 || err != io.EOF {
		t.Fatalf("read past cut: %d, %v", n, err)
	}
	if n, err := r.ReadAt(buf[:2], 1); n != 2 || err != nil {
		t.Fatalf("read inside cut: %d, %v", n, err)
	}
}

// intMsg is a trivial payload for runtime chaos tests.
type intMsg int

func (intMsg) SizeBytes() int { return 8 }

func init() { gob.Register(intMsg(0)) }

// chaosGraph wires source(n) → work (3 copies, factory wrapped by the
// caller, fed by the given policy) → a shared-slice sink.
func chaosGraph(n int, policy filter.Policy, workFactory func(int) filter.Filter, workNodes []int) (*filter.Graph, func() []int) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.Send("out", intMsg(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "work", Copies: 3, New: workFactory, Nodes: workNodes})
	var mu sync.Mutex
	var got []int
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				mu.Lock()
				got = append(got, int(m.Payload.(intMsg)))
				mu.Unlock()
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: policy})
	g.Connect(filter.ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	return g, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
}

// forward relays every buffer unchanged.
func forward(int) filter.Filter {
	return filter.Func(func(ctx filter.Context) error {
		for {
			m, ok := ctx.Recv()
			if !ok {
				return nil
			}
			if err := ctx.Send("out", m.Payload); err != nil {
				return err
			}
		}
	})
}

func TestCrashAfterFailover(t *testing.T) {
	const n = 80
	g, got := chaosGraph(n, filter.DemandDriven, CrashAfter(forward, 1, 4), nil)
	if _, err := filter.RunLocal(g, &filter.Options{Failover: true}); err != nil {
		t.Fatalf("run: %v", err)
	}
	msgs := got()
	if len(msgs) != n {
		t.Fatalf("sink received %d buffers, want %d", len(msgs), n)
	}
	sort.Ints(msgs)
	for i, v := range msgs {
		if v != i {
			t.Fatalf("message %d delivered as %d: duplicates or loss", i, v)
		}
	}
}

// TestCrashAfterWithoutFailoverFails deals round-robin, so copy 1's 4th
// buffer — the 11th of 80 — arrives by construction; demand-driven dealing
// could drain the stream through the other copies before it did.
func TestCrashAfterWithoutFailoverFails(t *testing.T) {
	g, _ := chaosGraph(80, filter.RoundRobin, CrashAfter(forward, 1, 4), nil)
	if _, err := filter.RunLocal(g, nil); err == nil {
		t.Fatal("injected crash absorbed without failover")
	}
}

func retryPolicy() *resilience.Policy {
	return &resilience.Policy{Retry: resilience.Retry{
		Attempts: 6,
		Base:     time.Millisecond,
		Max:      20 * time.Millisecond,
	}}
}

func TestFlakyTCPLinkWithRetry(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name string
		torn bool // a frame breaks mid-way, so a receiver counts an error
		wrap func(dials *atomic.Int32) func(c net.Conn, from, to int) net.Conn
	}{
		// Break the 7th write on every outbound node link; each redial gets
		// a fresh FlakyConn that breaks again, so the run only completes if
		// the sender keeps reconnecting and retransmitting. Round-robin
		// dealing puts 13 buffers on each remote link by construction:
		// demand-driven dealing keeps them at the co-located copy once the
		// links are priced. Each break fails a whole write, so receivers see
		// a clean end of stream between frames.
		{"every link breaks at write 7", false, func(*atomic.Int32) func(net.Conn, int, int) net.Conn {
			return func(c net.Conn, from, to int) net.Conn { return &FlakyConn{Conn: c, FailAt: 7} }
		}},
		// Tear the first frame of the 0→1 link's first socket after 3 bytes,
		// inside its 4-byte length prefix: the receiver fails that socket
		// before any whole frame has named the sending node, so the error
		// counts on node 1's row for an unknown sender.
		{"first frame torn", true, func(dials *atomic.Int32) func(net.Conn, int, int) net.Conn {
			return func(c net.Conn, from, to int) net.Conn {
				if from == 0 && to == 1 && dials.Add(1) == 1 {
					return &FlakyConn{Conn: c, FailAt: 1, Partial: 3}
				}
				return c
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dials atomic.Int32
			g, got := chaosGraph(n, filter.RoundRobin, forward, []int{0, 1, 2})
			rs, err := filter.RunTCP(g, &filter.Options{
				WireCodec:   filter.CodecBinary,
				Failover:    true,
				Resilience:  retryPolicy(),
				SendTimeout: 2 * time.Second,
				RecvTimeout: 2 * time.Second,
				WrapConn:    tc.wrap(&dials),
			})
			if err != nil {
				t.Fatalf("run with retry: %v", err)
			}
			msgs := got()
			if len(msgs) != n {
				t.Fatalf("sink received %d buffers, want %d", len(msgs), n)
			}
			sort.Ints(msgs)
			for i, v := range msgs {
				if v != i {
					t.Fatalf("message %d delivered as %d: duplicates or loss", i, v)
				}
			}
			if rs == nil {
				t.Fatal("run report missing")
			}
			var retries, redials, recvErrors int64
			for _, c := range rs.Network {
				retries += c.Retries
				redials += c.Redials
				recvErrors += c.RecvErrors
				if c.RecvErrors > 0 && (c.FromNode != -1 || c.ToNode != 1) {
					t.Errorf("receive errors on row %d -> %d, want them on the unknown sender's row into node 1", c.FromNode, c.ToNode)
				}
			}
			if retries == 0 || redials == 0 {
				t.Errorf("retries=%d redials=%d, want both > 0", retries, redials)
			}
			if tc.torn != (recvErrors > 0) {
				t.Errorf("recv_errors=%d with torn=%v", recvErrors, tc.torn)
			}
		})
	}
}

// TestFlakyTCPLinkDemandDriven deals demand-driven from a source that sends
// every half millisecond to copies that serve in 5 ms, so every copy queues
// work, and no queue holds more than a few buffers. The source's link to
// node 1 breaks once, at its 3rd write; the retried send's 100 ms backoff and
// its redial are not the link's price, so node 1's copy keeps receiving
// buffers after it.
func TestFlakyTCPLinkDemandDriven(t *testing.T) {
	const n, failAt = 40, 3
	var dials atomic.Int32
	wrap := func(c net.Conn, from, to int) net.Conn {
		if from == 0 && to == 1 && dials.Add(1) == 1 {
			return &FlakyConn{Conn: c, FailAt: failAt}
		}
		return c
	}
	var perNode [3]atomic.Int32
	var mu sync.Mutex
	var got []int
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for i := 0; i < n; i++ {
				time.Sleep(time.Millisecond / 2)
				if err := ctx.Send("out", intMsg(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "work", Copies: 3, Nodes: []int{0, 1, 2}, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				perNode[ctx.Node()].Add(1)
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				got = append(got, int(m.Payload.(intMsg)))
				mu.Unlock()
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: filter.DemandDriven})
	// A backoff far above what the bounded queues can hold: were it the
	// link's price, node 1 would never be worth a buffer again.
	backoff := &resilience.Policy{Retry: resilience.Retry{Attempts: 3, Base: 100 * time.Millisecond, Max: 100 * time.Millisecond}}
	rs, err := filter.RunTCP(g, &filter.Options{QueueBytes: 32, Resilience: backoff, WrapConn: wrap})
	if err != nil {
		t.Fatalf("run with retry: %v", err)
	}
	sort.Ints(got)
	if len(got) != n {
		t.Fatalf("received %d buffers, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d delivered as %d: duplicates or loss", i, v)
		}
	}
	for _, c := range rs.Network {
		if c.FromNode == 0 && c.ToNode == 1 && (c.Retries == 0 || c.Redials == 0) {
			t.Errorf("link 0->1: retries=%d redials=%d, want both > 0", c.Retries, c.Redials)
		}
	}
	if k := perNode[1].Load(); k <= failAt {
		t.Errorf("node 1's copy received %d buffers, want more than the %d up to the retried one", k, failAt)
	}
}

func TestFlakyTCPLinkWithoutRetryFails(t *testing.T) {
	wrap := func(c net.Conn, from, to int) net.Conn {
		return &FlakyConn{Conn: c, FailAt: 7}
	}
	g, _ := chaosGraph(40, filter.RoundRobin, forward, []int{0, 1, 2})
	if _, err := filter.RunTCP(g, &filter.Options{WireCodec: filter.CodecBinary, WrapConn: wrap}); err == nil {
		t.Fatal("flaky link survived without a retry policy")
	}
}

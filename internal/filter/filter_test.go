package filter

import (
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// intPayload is a trivial payload for middleware tests.
type intPayload int

func (p intPayload) SizeBytes() int { return 8 }

func init() { gob.Register(intPayload(0)) }

// source emits n integers on port "out".
func source(n int) func(int) Filter {
	return func(copy int) Filter {
		return Func(func(ctx Context) error {
			for i := 0; i < n; i++ {
				if err := ctx.Send("out", intPayload(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// collect returns a factory whose copies append received ints to a shared
// slice, plus the slice accessor.
func collect() (func(int) Filter, func() []int) {
	var mu sync.Mutex
	var got []int
	factory := func(copy int) Filter {
		return Func(func(ctx Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				mu.Lock()
				got = append(got, int(m.Payload.(intPayload)))
				mu.Unlock()
			}
		})
	}
	return factory, func() []int {
		mu.Lock()
		defer mu.Unlock()
		out := append([]int(nil), got...)
		return out
	}
}

func TestGraphValidate(t *testing.T) {
	mk := func() *Graph {
		g := NewGraph()
		g.AddFilter(FilterSpec{Name: "a", Copies: 1, New: source(1)})
		g.AddFilter(FilterSpec{Name: "b", Copies: 2, New: source(1)})
		g.Connect(ConnSpec{From: "a", FromPort: "out", To: "b", ToPort: "in", Policy: RoundRobin})
		return g
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	cases := []func(*Graph){
		func(g *Graph) { g.Filters[0].Name = "" },
		func(g *Graph) { g.Filters[1].Name = "a" },
		func(g *Graph) { g.Filters[0].Copies = 0 },
		func(g *Graph) { g.Filters[0].New = nil },
		func(g *Graph) { g.Filters[0].Nodes = []int{1, 2} },
		func(g *Graph) { g.Filters[0].Nodes = []int{-1} },
		func(g *Graph) { g.Conns[0].From = "zzz" },
		func(g *Graph) { g.Conns[0].To = "zzz" },
		func(g *Graph) { g.Conns[0].FromPort = "" },
		func(g *Graph) { g.Conns = append(g.Conns, g.Conns[0]) },
		func(g *Graph) { g.Conns[0].Policy = Policy(9) },
	}
	for i, mutate := range cases {
		g := mk()
		mutate(g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid graph accepted", i)
		}
	}
}

func TestPolicyStringParse(t *testing.T) {
	for _, p := range []Policy{RoundRobin, DemandDriven, Explicit} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bogus policy accepted")
	}
	if p, err := ParsePolicy("rr"); err != nil || p != RoundRobin {
		t.Error("rr alias broken")
	}
	if p, err := ParsePolicy("dd"); err != nil || p != DemandDriven {
		t.Error("dd alias broken")
	}
}

func TestNumNodes(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "a", Copies: 2, New: source(1), Nodes: []int{0, 5}})
	if g.NumNodes() != 6 {
		t.Errorf("NumNodes = %d, want 6", g.NumNodes())
	}
}

func runPipe(t *testing.T, n, copies int, policy Policy, run func(*Graph, *Options) (*RunStats, error)) (*RunStats, []int) {
	t.Helper()
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(n)})
	sink, got := collect()
	nodes := make([]int, copies)
	for i := range nodes {
		nodes[i] = i % 2 // spread consumers over two nodes for TCP coverage
	}
	g.AddFilter(FilterSpec{Name: "sink", Copies: copies, New: sink, Nodes: nodes})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: policy})
	stats, err := run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats, got()
}

func checkAllReceived(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	seen := make([]bool, n)
	for _, v := range got {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("bad or duplicate message %d", v)
		}
		seen[v] = true
	}
}

func TestLocalPipeline(t *testing.T) {
	for _, copies := range []int{1, 3, 7} {
		for _, policy := range []Policy{RoundRobin, DemandDriven} {
			_, got := runPipe(t, 100, copies, policy, RunLocal)
			checkAllReceived(t, got, 100)
		}
	}
}

func TestRoundRobinExactBalance(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(100)})
	var counts [4]atomic.Int64
	g.AddFilter(FilterSpec{Name: "sink", Copies: 4, New: func(copy int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
				counts[copy].Add(1)
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 25 {
			t.Errorf("copy %d received %d buffers, want exactly 25", i, n)
		}
	}
}

func TestExplicitRouting(t *testing.T) {
	g := NewGraph()
	// Route value v to copy v%3; each sink copy verifies it only sees its
	// own residue class.
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			if ctx.ConsumerCopies("out") != 3 {
				return fmt.Errorf("ConsumerCopies = %d", ctx.ConsumerCopies("out"))
			}
			for i := 0; i < 30; i++ {
				if err := ctx.SendTo("out", i%3, intPayload(i)); err != nil {
					return err
				}
			}
			// Send on an explicit port must fail.
			if err := ctx.Send("out", intPayload(0)); err == nil {
				return errors.New("Send on explicit port succeeded")
			}
			// Out-of-range copy must fail.
			if err := ctx.SendTo("out", 99, intPayload(0)); err == nil {
				return errors.New("SendTo out of range succeeded")
			}
			return nil
		})
	}})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 3, New: func(copy int) Filter {
		return Func(func(ctx Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if int(m.Payload.(intPayload))%3 != copy {
					return fmt.Errorf("copy %d received %v", copy, m.Payload)
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: Explicit})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFanInEOS(t *testing.T) {
	// Multiple producer copies into one consumer: the consumer must see all
	// messages and terminate only after every producer copy signals EOS.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 5, New: source(20)})
	sink, got := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(got()); n != 100 {
		t.Errorf("received %d messages, want 100", n)
	}
}

func TestMultiPortRecv(t *testing.T) {
	// Two producers into two distinct ports of one consumer.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "a", Copies: 1, New: source(10)})
	g.AddFilter(FilterSpec{Name: "b", Copies: 1, New: source(5)})
	var aCount, bCount atomic.Int64
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				switch m.Port {
				case "pa":
					aCount.Add(1)
				case "pb":
					bCount.Add(1)
				default:
					return fmt.Errorf("unknown port %q", m.Port)
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "a", FromPort: "out", To: "sink", ToPort: "pa", Policy: RoundRobin})
	g.Connect(ConnSpec{From: "b", FromPort: "out", To: "sink", ToPort: "pb", Policy: RoundRobin})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	if aCount.Load() != 10 || bCount.Load() != 5 {
		t.Errorf("port counts = %d, %d", aCount.Load(), bCount.Load())
	}
}

func TestErrorPropagation(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(1000)})
	boom := errors.New("boom")
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			ctx.Recv()
			return boom
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	_, err := RunLocal(g, &Options{QueueBytes: 2 * 8})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestPanicRecovered(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "p", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error { panic("kaboom") })
	}})
	_, err := RunLocal(g, nil)
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
}

func TestSendWithoutConnection(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "p", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			if err := ctx.Send("nowhere", intPayload(1)); err == nil {
				return errors.New("send on unconnected port succeeded")
			}
			if err := ctx.SendTo("nowhere", 0, intPayload(1)); err == nil {
				return errors.New("sendTo on unconnected port succeeded")
			}
			if ctx.ConsumerCopies("nowhere") != 0 {
				return errors.New("ConsumerCopies on unconnected port nonzero")
			}
			return nil
		})
	}})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			if err := ctx.Send("out", nil); err == nil {
				return errors.New("nil payload accepted")
			}
			return nil
		})
	}})
	sink, _ := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	if _, err := RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEarlyConsumerExitDoesNotDeadlock(t *testing.T) {
	// Consumer takes one message and returns; producer must still finish.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(500)})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			ctx.Recv()
			return nil
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	if _, err := RunLocal(g, &Options{QueueBytes: 4 * 8}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	stats, got := runPipe(t, 64, 2, RoundRobin, RunLocal)
	checkAllReceived(t, got, 64)
	src := stats.Copies["src"]
	if len(src) != 1 || src[0].MsgsOut != 64 || src[0].BytesOut != 64*8 {
		t.Errorf("src stats wrong: %+v", src)
	}
	var in int64
	for _, c := range stats.Copies["sink"] {
		in += c.MsgsIn
	}
	if in != 64 {
		t.Errorf("sink MsgsIn = %d", in)
	}
	if stats.FilterCompute("sink") < 0 || stats.MeanCompute("sink") < 0 {
		t.Error("negative compute")
	}
	if stats.BytesSent("src") != 64*8 {
		t.Errorf("BytesSent = %d", stats.BytesSent("src"))
	}
	if stats.String() == "" {
		t.Error("empty stats string")
	}
	if stats.MeanCompute("missing") != 0 {
		t.Error("MeanCompute of unknown filter")
	}
}

func TestTCPPipeline(t *testing.T) {
	for _, copies := range []int{1, 4} {
		for _, policy := range []Policy{RoundRobin, DemandDriven} {
			stats, got := runPipe(t, 200, copies, policy, RunTCP)
			checkAllReceived(t, got, 200)
			_ = stats
		}
	}
}

func TestTCPMultiStage(t *testing.T) {
	// Three stages across three nodes; middle stage transforms values.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(50), Nodes: []int{0}})
	g.AddFilter(FilterSpec{Name: "mid", Copies: 2, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if err := ctx.Send("out", m.Payload.(intPayload)*2); err != nil {
					return err
				}
			}
		})
	}, Nodes: []int{1, 2}})
	sink, got := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink, Nodes: []int{0}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "mid", ToPort: "in", Policy: DemandDriven})
	g.Connect(ConnSpec{From: "mid", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	if _, err := RunTCP(g, nil); err != nil {
		t.Fatal(err)
	}
	vals := got()
	if len(vals) != 50 {
		t.Fatalf("received %d", len(vals))
	}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 2*(49*50/2) {
		t.Errorf("sum = %d", sum)
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(100), Nodes: []int{0}})
	boom := errors.New("boom")
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			ctx.Recv()
			return boom
		})
	}, Nodes: []int{1}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	_, err := RunTCP(g, &Options{QueueBytes: 2 * 8})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

// Demand-driven must starve no copy when consumers are equally fast and the
// producer is slower than the consumers (each copy gets some work), and must
// shift load toward fast consumers when speeds differ.
func TestDemandDrivenSkew(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(400)})
	var counts [2]atomic.Int64
	g.AddFilter(FilterSpec{Name: "sink", Copies: 2, New: func(copy int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
				counts[copy].Add(1)
				if copy == 1 {
					// Slow copy: burn some CPU.
					x := 0.0
					for i := 0; i < 200000; i++ {
						x += float64(i)
					}
					_ = x
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: DemandDriven})
	if _, err := RunLocal(g, &Options{QueueBytes: 2 * 8}); err != nil {
		t.Fatal(err)
	}
	fast, slow := counts[0].Load(), counts[1].Load()
	if fast+slow != 400 {
		t.Fatalf("total = %d", fast+slow)
	}
	if fast <= slow {
		t.Errorf("demand-driven did not favor the fast copy: fast=%d slow=%d", fast, slow)
	}
}

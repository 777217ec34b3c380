package filter

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// flatMachine is a simulated cluster of speed-1 nodes in which a transfer
// occupies the receiving node's link for latency plus one nanosecond per
// byte.
type flatMachine struct {
	nodes   int
	latency time.Duration
}

func (m flatMachine) Validate(nodes int) error {
	if nodes > m.nodes {
		return fmt.Errorf("machine has %d nodes, graph needs %d", m.nodes, nodes)
	}
	return nil
}
func (m flatMachine) Speed(int) float64 { return 1 }
func (m flatMachine) Transfer(_, b, n int) (int, time.Duration, time.Duration) {
	return b, m.latency, time.Duration(n)
}

// candidate is one consumer copy's state as the demand-driven choice reads
// it.
type candidate struct {
	pending, busy, msgs int64
	node                int
}

// ddScoreBefore is the demand-driven score of the local and TCP engines
// before the simulated cluster shared their runtime: (queue+1) × mean
// service time, doubled, plus one for a remote copy.
func ddScoreBefore(c candidate, from int) int64 {
	svc := int64(1)
	if c.msgs > 0 {
		if s := c.busy / c.msgs; s > svc {
			svc = s
		}
	}
	score := (c.pending + 1) * svc * 2
	if c.node != from {
		score++
	}
	return score
}

// TestDemandTargetMatchesDDScore: under the local engine, and the TCP
// engine before any link has carried a buffer — both transfer terms are
// zero — the one demand-driven score picks the copy the engines' own score
// picked, ties included (the first lowest in index order, a co-located copy
// before a remote one at equal load).
func TestDemandTargetMatchesDDScore(t *testing.T) {
	table := [][]candidate{
		{{0, 0, 0, 0}, {0, 0, 0, 1}},                  // no history, co-located first
		{{0, 0, 0, 1}, {0, 0, 0, 0}},                  // no history, co-located second
		{{0, 0, 0, 1}, {0, 0, 0, 2}},                  // both remote: index order
		{{1, 0, 0, 0}, {0, 0, 0, 1}},                  // a queued buffer outweighs locality
		{{2, 30, 10, 0}, {2, 30, 10, 1}},              // equal load and service
		{{0, 300, 10, 0}, {1, 100, 10, 1}},            // 30 vs 2×10: the remote copy
		{{1, 100, 10, 0}, {0, 200, 10, 1}},            // 20 vs 20 + 1: the co-located
		{{0, 99, 10, 1}, {0, 10, 1, 0}},               // svc truncates to 9 vs 10
		{{0, 5, 10, 0}, {0, 0, 3, 1}, {0, 1, 1, 1}},   // sub-ns service floors at 1
		{{3, 70, 7, 1}, {4, 40, 5, 2}, {2, 90, 9, 0}}, // 40, 40 + 1, 30: the last
	}
	rng := rand.New(rand.NewSource(42))
	for len(table) < 2000 {
		row := make([]candidate, 1+rng.Intn(5))
		for i := range row {
			msgs := int64(rng.Intn(4))
			row[i] = candidate{pending: int64(rng.Intn(4)), busy: msgs * int64(rng.Intn(4)), msgs: msgs, node: rng.Intn(3)}
		}
		table = append(table, row)
	}
	for _, engine := range []struct {
		name  string
		trans transport
	}{{"local", nil}, {"tcp", &tcpTransport{}}} {
		rt := &runtime{trans: engine.trans}
		for i, row := range table {
			for from := 0; from < 3; from++ {
				copies := make([]*copyState, len(row))
				want := 0
				for j, c := range row {
					copies[j] = &copyState{node: c.node}
					copies[j].pending.Store(c.pending)
					copies[j].led.Busy.Add(c.busy)
					copies[j].led.MsgsIn.Add(c.msgs)
					if ddScoreBefore(c, from) < ddScoreBefore(row[want], from) {
						want = j
					}
				}
				if got := rt.demandTarget(copies, from, 1<<20); got != copies[want] {
					t.Fatalf("%s row %d %+v from node %d: picked copy %d, want %d", engine.name, i, row, from, got.copyIdx, want)
				}
			}
		}
	}
}

// TestDemandTargetPricesTCPLinks: once a TCP link has carried a buffer, the
// score adds the buffer's bytes times the link's measured price. Every row
// sends a 5 MiB buffer from node 0; copies serve in 10 ms (100 ms busy over
// 10 buffers), about what a split-layout HPC copy takes for a batch of that
// size.
func TestDemandTargetPricesTCPLinks(t *testing.T) {
	const size = 5 << 20
	ms := time.Millisecond
	for _, tc := range []struct {
		name    string
		pending []int64         // per copy; copy i is on node i
		price   map[int]float64 // ns per byte of the link 0→node; absent: unpriced
		want    int
	}{
		{"nothing priced: a queued buffer outweighs locality", []int64{1, 0}, nil, 1},
		{"priced above one service time: locality wins", []int64{1, 0}, map[int]float64{1: 2.4}, 0},
		{"priced below one service time: the idle copy", []int64{1, 0}, map[int]float64{1: 1.5}, 1},
		{"priced: a deep enough local queue still sends remote", []int64{3, 0}, map[int]float64{1: 2.4}, 1},
		{"both remote at equal load: the cheaper link", []int64{5, 0, 0}, map[int]float64{1: 5, 2: 2}, 2},
		{"an unpriced link is not free: it takes the pool's price", []int64{5, 0, 1}, map[int]float64{1: 2}, 1},
		{"an unpriced link takes the pool's price: locality wins", []int64{1, 0, 0}, map[int]float64{2: 2.4}, 0},
	} {
		nodes := len(tc.pending)
		tr := &tcpTransport{nodes: nodes, prices: make([]linkPrice, nodes*nodes), start: time.Now()}
		for node, p := range tc.price {
			tr.record(0, node, 0, time.Duration(p*size), size, true)
		}
		rt := &runtime{trans: tr}
		copies := make([]*copyState, nodes)
		for i, p := range tc.pending {
			copies[i] = &copyState{copyIdx: i, node: i}
			copies[i].pending.Store(p)
			copies[i].led.Busy.Add(int64(100 * ms))
			copies[i].led.MsgsIn.Add(10)
		}
		if got := rt.demandTarget(copies, 0, size); got != copies[tc.want] {
			t.Errorf("%s: picked copy %d, want %d", tc.name, got.copyIdx, tc.want)
		}
	}
}

// TestLinkPrice: a link's price is its timed work over the payload bytes it
// carried — the sender's encode and the receiver's read and decode — and a
// link that has carried nothing takes the pool's. Buffers under
// minPricedBytes price nothing. A price halves for every priceHalfLife
// since the link's last buffer, or since the start for an unused link.
func TestLinkPrice(t *testing.T) {
	const mib = 1 << 20
	tr := &tcpTransport{nodes: 3, prices: make([]linkPrice, 9)}
	if got := tr.cost(0, 1, 0, mib); got != 0 {
		t.Errorf("nothing priced: %v, want 0", got)
	}
	tr.record(0, 1, 0, 100*time.Microsecond, 64, true) // small: fixed costs only
	tr.record(0, 1, 0, 3*time.Millisecond, mib, true)  // the sender's encode
	tr.record(0, 1, 0, 5*time.Millisecond, mib, false) // the receiver's read and decode
	for _, tc := range []struct {
		a, b int
		now  time.Duration
		want time.Duration
	}{
		{0, 1, 0, 8 * time.Millisecond},
		{0, 1, priceHalfLife, 4 * time.Millisecond},
		{0, 1, 3 * priceHalfLife, time.Millisecond},
		{1, 2, 0, 8 * time.Millisecond},             // the pool's
		{1, 2, priceHalfLife, 4 * time.Millisecond}, // decayed from the start
		{0, 3, 0, 0}, // no such node
	} {
		if got := tr.cost(tc.a, tc.b, tc.now, mib); got != tc.want {
			t.Errorf("%d->%d at %v: %v, want %v", tc.a, tc.b, tc.now, got, tc.want)
		}
	}
	// A second link's sends move the pool, not the first link.
	tr.record(1, 0, 0, 24*time.Millisecond, mib, true)
	if got, want := tr.cost(0, 1, 0, mib), 8*time.Millisecond; got != want {
		t.Errorf("0->1 after 1->0 priced: %v, want %v", got, want)
	}
	if got, want := tr.cost(2, 1, 0, mib), 16*time.Millisecond; got != want {
		t.Errorf("2->1 from the pool: %v, want %v", got, want)
	}
}

// TestSimStallTimeoutVirtual: under the virtual clock the watchdog counts
// virtual time. A sink whose one compute segment is charged 100× its host
// time outlasts a deadline its host time is far inside, and is named busy.
func TestSimStallTimeoutVirtual(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(3)})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, Nodes: []int{1}, New: func(int) Filter {
		return Func(func(ctx Context) error {
			if _, ok := ctx.Recv(); !ok {
				return nil
			}
			time.Sleep(20 * time.Millisecond) // 2 s of virtual compute
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	_, err := RunSim(context.Background(), g, flatMachine{nodes: 2}, 100, &Options{StallTimeout: time.Second})
	var se *StallError
	if !errors.As(err, &se) || se.Timeout != time.Second {
		t.Fatalf("err = %v, want a 1s StallError", err)
	}
	if len(se.Stalled) == 0 || se.Stalled[0].Filter != "sink" || se.Stalled[0].State != "busy" {
		t.Fatalf("stalled copies %+v, want the sink first, busy", se.Stalled)
	}
	// The same run without the watchdog completes: the segment was slow,
	// not wedged.
	if _, err := RunSim(context.Background(), g, flatMachine{nodes: 2}, 100, nil); err != nil {
		t.Fatalf("unarmed run: %v", err)
	}
}

// TestSimMonitorSeesVirtualTime: the Monitor's probe works under the
// virtual clock, and its elapsed time is virtual.
func TestSimMonitorSeesVirtualTime(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(20)})
	sink, got := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, Nodes: []int{1}, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	var probed bool
	rep, err := RunSim(context.Background(), g, flatMachine{nodes: 2, latency: time.Hour}, 1, &Options{
		Monitor: func(stop <-chan struct{}, p Probe) {
			<-stop
			probed = p.Report().Filter("sink").MsgsIn == 20
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got()) != 20 || !probed {
		t.Fatalf("sink got %d buffers, probe saw all: %t", len(got()), probed)
	}
	if rep.Engine != "sim" || rep.Elapsed() < time.Hour {
		t.Errorf("%s engine elapsed %v, want the hour-long link's virtual time", rep.Engine, rep.Elapsed())
	}
}

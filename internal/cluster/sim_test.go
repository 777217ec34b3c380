package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
)

// run executes g on the simulated cluster topo at compute scale 1.
func run(g *filter.Graph, topo *Topology, opts *filter.Options) (*metrics.RunReport, error) {
	return filter.RunSim(context.Background(), g, topo, 1, opts)
}

type bytesPayload int

func (p bytesPayload) SizeBytes() int { return int(p) }

// burn spins the CPU for roughly d of host wall time, so compute charges are
// controllable in tests.
func burn(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// srcFilter emits n payloads of size bytes each.
func srcFilter(n, size int, work time.Duration) func(int) filter.Filter {
	return func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for i := 0; i < n; i++ {
				burn(work)
				if err := ctx.Send("out", bytesPayload(size)); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// sinkFilter consumes everything, burning work per buffer, and counts into
// the shared slice indexed by copy.
func sinkFilter(counts []int, work time.Duration, mu *sync.Mutex) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
				burn(work)
				if mu != nil {
					mu.Lock()
				}
				counts[copy]++
				if mu != nil {
					mu.Unlock()
				}
			}
		})
	}
}

func pipelineGraph(n, size, consumers int, policy filter.Policy, srcNode int, sinkNodes []int, counts []int) *filter.Graph {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(n, size, 0), Nodes: []int{srcNode}})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: consumers, New: sinkFilter(counts, 0, nil), Nodes: sinkNodes})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: policy})
	return g
}

func TestSimDeliversEverything(t *testing.T) {
	counts := make([]int, 3)
	g := pipelineGraph(90, 100, 3, filter.RoundRobin, 0, []int{1, 2, 3}, counts)
	stats, err := run(g, Uniform(4, 1, time.Millisecond, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range counts {
		total += c
		if c != 30 {
			t.Errorf("copy %d received %d, want 30 (round robin exact)", i, c)
		}
	}
	if total != 90 {
		t.Fatalf("total %d", total)
	}
	if stats.Elapsed() <= 0 {
		t.Error("non-positive virtual elapsed time")
	}
	var in int64
	for _, c := range stats.Filter("sink").Copies {
		in += c.MsgsIn
	}
	if in != 90 {
		t.Errorf("stats MsgsIn = %d", in)
	}
}

func TestSimNetworkCostDominates(t *testing.T) {
	// 50 buffers × 1 MB over a 10 MB/s link must take ≥ 5 s of virtual
	// time; the same transfer co-located must be orders of magnitude less.
	counts := make([]int, 1)
	remote := pipelineGraph(50, 1<<20, 1, filter.RoundRobin, 0, []int{1}, counts)
	rs, err := run(remote, Uniform(2, 1, 0, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Elapsed() < 5*time.Second {
		t.Errorf("remote elapsed %v, want >= 5s", rs.Elapsed())
	}
	counts[0] = 0
	local := pipelineGraph(50, 1<<20, 1, filter.RoundRobin, 0, []int{0}, counts)
	ls, err := run(local, Uniform(2, 1, 0, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Elapsed() > rs.Elapsed()/10 {
		t.Errorf("co-located elapsed %v not far below remote %v", ls.Elapsed(), rs.Elapsed())
	}
}

func TestSimLatencyCharged(t *testing.T) {
	// One tiny buffer over a high-latency link: elapsed ≈ latency.
	counts := make([]int, 1)
	g := pipelineGraph(1, 1, 1, filter.RoundRobin, 0, []int{1}, counts)
	stats, err := run(g, Uniform(2, 1, 500*time.Millisecond, 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Elapsed() < 500*time.Millisecond {
		t.Errorf("elapsed %v, want >= 500ms latency", stats.Elapsed())
	}
}

func TestSimSpeedScaling(t *testing.T) {
	// The same compute on a 8x-faster node should be several times cheaper
	// in virtual time.
	mkGraph := func(counts []int) *filter.Graph {
		g := filter.NewGraph()
		g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(5, 1, 0), Nodes: []int{0}})
		g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(counts, 4*time.Millisecond, nil), Nodes: []int{1}})
		g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
		return g
	}
	slow, err := run(mkGraph(make([]int, 1)), &Topology{
		Speeds: []float64{1, 1},
		LinkOf: func(a, b int) Link { return Link{ID: b, MBPerSecond: 1000} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := run(mkGraph(make([]int, 1)), &Topology{
		Speeds: []float64{1, 8},
		LinkOf: func(a, b int) Link { return Link{ID: b, MBPerSecond: 1000} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slowT := slow.Filter("sink").BusyNS
	fastT := fast.Filter("sink").BusyNS
	if fastT <= 0 || slowT <= 0 {
		t.Fatalf("non-positive compute times %v, %v", slowT, fastT)
	}
	ratio := float64(slowT) / float64(fastT)
	if ratio < 3 {
		t.Errorf("speed-8 node only %.1fx faster in virtual time", ratio)
	}
}

func TestSimComputeScale(t *testing.T) {
	counts := make([]int, 1)
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(3, 1, 0)})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(counts, 2*time.Millisecond, nil)})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	base, err := run(g, Uniform(1, 1, 0, 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	counts[0] = 0
	g2 := filter.NewGraph()
	g2.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(3, 1, 0)})
	g2.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(counts, 2*time.Millisecond, nil)})
	g2.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	scaled, err := filter.RunSim(context.Background(), g2, Uniform(1, 1, 0, 1000), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(scaled.Filter("sink").BusyNS) / float64(base.Filter("sink").BusyNS)
	if ratio < 4 {
		t.Errorf("ComputeScale=10 only scaled compute by %.1fx", ratio)
	}
}

func TestSimDemandDrivenBeatsRoundRobinHeterogeneous(t *testing.T) {
	// Two consumers, one on a 4x faster node. Demand-driven should finish
	// sooner than round-robin, which forces half the buffers to the slow
	// copy (paper Fig. 11).
	elapsed := func(policy filter.Policy) time.Duration {
		counts := make([]int, 2)
		g := filter.NewGraph()
		g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(40, 1, 0), Nodes: []int{0}})
		g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 2, New: sinkFilter(counts, time.Millisecond, nil), Nodes: []int{1, 2}})
		g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: policy})
		topo := &Topology{
			Speeds: []float64{1, 1, 4},
			LinkOf: func(a, b int) Link { return Link{ID: b, MBPerSecond: 1000} },
		}
		stats, err := run(g, topo, &filter.Options{QueueBytes: 2}) // two buffers
		if err != nil {
			t.Fatal(err)
		}
		if counts[0]+counts[1] != 40 {
			t.Fatalf("lost buffers: %v", counts)
		}
		if policy == filter.DemandDriven && counts[1] <= counts[0] {
			t.Errorf("demand-driven did not favor the fast node: %v", counts)
		}
		return stats.Elapsed()
	}
	rr := elapsed(filter.RoundRobin)
	dd := elapsed(filter.DemandDriven)
	if dd >= rr {
		t.Errorf("demand-driven (%v) not faster than round-robin (%v)", dd, rr)
	}
}

func TestSimSharedTrunkSerializes(t *testing.T) {
	// Two flows crossing the same trunk take ~2x the time of flows on
	// independent links.
	mk := func() (*filter.Graph, []int) {
		counts := make([]int, 2)
		g := filter.NewGraph()
		g.AddFilter(filter.FilterSpec{Name: "src", Copies: 2, New: srcFilter(20, 1<<20, 0), Nodes: []int{0, 1}})
		g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 2, New: sinkFilter(counts, 0, nil), Nodes: []int{2, 3}})
		g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
		return g, counts
	}
	shared := &Topology{
		Speeds: []float64{1, 1, 1, 1},
		LinkOf: func(a, b int) Link { return Link{ID: 99, MBPerSecond: 20} },
	}
	separate := &Topology{
		Speeds: []float64{1, 1, 1, 1},
		LinkOf: func(a, b int) Link { return Link{ID: a*4 + b, MBPerSecond: 20} },
	}
	g1, _ := mk()
	s1, err := run(g1, shared, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := mk()
	s2, err := run(g2, separate, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(s1.Elapsed()) / float64(s2.Elapsed())
	if ratio < 1.5 {
		t.Errorf("shared trunk only %.2fx slower (%v vs %v)", ratio, s1.Elapsed(), s2.Elapsed())
	}
}

func TestSimDeadlockDetected(t *testing.T) {
	// Classic cyclic buffer exhaustion: both filters send more than the
	// queue depth before receiving.
	mk := func(name, peerPort string) func(int) filter.Filter {
		return func(int) filter.Filter {
			return filter.Func(func(ctx filter.Context) error {
				for i := 0; i < 5; i++ {
					if err := ctx.Send("out", bytesPayload(1)); err != nil {
						return err
					}
				}
				for {
					if _, ok := ctx.Recv(); !ok {
						return nil
					}
				}
			})
		}
	}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "a", Copies: 1, New: mk("a", "in")})
	g.AddFilter(filter.FilterSpec{Name: "b", Copies: 1, New: mk("b", "in")})
	g.Connect(filter.ConnSpec{From: "a", FromPort: "out", To: "b", ToPort: "in", Policy: filter.RoundRobin})
	g.Connect(filter.ConnSpec{From: "b", FromPort: "out", To: "a", ToPort: "in", Policy: filter.RoundRobin})
	_, err := run(g, Uniform(1, 1, 0, 1000), &filter.Options{QueueBytes: 1}) // one buffer
	var se *filter.StallError
	if !errors.As(err, &se) || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
	if len(se.Stalled) != 2 {
		t.Fatalf("stalled copies %+v, want a and b", se.Stalled)
	}
	for _, c := range se.Stalled {
		if c.State != "send-wait" {
			t.Errorf("%s[%d] is %s, want send-wait (each holds the other's queue full)", c.Filter, c.Copy, c.State)
		}
	}
}

func TestSimErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(1000, 10, 0), Nodes: []int{0}})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			ctx.Recv()
			return boom
		})
	}, Nodes: []int{1}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	_, err := run(g, Uniform(2, 1, 0, 1000), &filter.Options{QueueBytes: 20}) // two buffers
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want boom", err)
	}
}

func TestSimPanicSurfaces(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "p", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error { panic("kaboom") })
	}})
	_, err := run(g, Uniform(1, 1, 0, 1000), nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not surfaced: %v", err)
	}
}

func TestSimExplicitRouting(t *testing.T) {
	counts := make([]int, 3)
	var mu sync.Mutex
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			if err := ctx.Send("out", bytesPayload(1)); err == nil {
				return errors.New("Send on explicit port succeeded")
			}
			for i := 0; i < 30; i++ {
				if err := ctx.SendTo("out", i%3, bytesPayload(1)); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 3, New: sinkFilter(counts, 0, &mu), Nodes: []int{0, 0, 0}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.Explicit})
	if _, err := run(g, Uniform(1, 1, 0, 1000), nil); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 10 {
			t.Errorf("copy %d got %d, want 10", i, c)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	topo := Uniform(2, 1, 0, 10)
	if err := topo.Validate(2); err != nil {
		t.Error(err)
	}
	if err := topo.Validate(3); err == nil {
		t.Error("too-small topology accepted")
	}
	bad := &Topology{Speeds: []float64{0}, LinkOf: topo.LinkOf}
	if err := bad.Validate(1); err == nil {
		t.Error("zero speed accepted")
	}
	noLink := &Topology{Speeds: []float64{1}}
	if err := noLink.Validate(1); err == nil {
		t.Error("missing link function accepted")
	}
}

func TestHeterogeneousTopology(t *testing.T) {
	h := NewHeterogeneous([]ClusterSpec{
		{Name: "piii", Nodes: 3, Speed: 1, Latency: time.Millisecond, MBps: 12},
		{Name: "xeon", Nodes: 2, Speed: 2.7, Latency: time.Microsecond, MBps: 119},
	}, Link{Latency: time.Millisecond, MBPerSecond: 12})
	if h.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", h.NumNodes())
	}
	if h.ClusterOf(0) != 0 || h.ClusterOf(4) != 1 {
		t.Error("ClusterOf wrong")
	}
	if nodes := h.NodesOf(1); len(nodes) != 2 || nodes[0] != 3 {
		t.Errorf("NodesOf = %v", nodes)
	}
	if h.Speeds[3] != 2.7 {
		t.Error("speed assignment wrong")
	}
	intra := h.LinkOf(0, 1)
	if intra.MBPerSecond != 12 || intra.ID != 1 {
		t.Errorf("intra link = %+v", intra)
	}
	inter1 := h.LinkOf(0, 3)
	inter2 := h.LinkOf(4, 2)
	if inter1.ID != inter2.ID {
		t.Error("cross-cluster links should share one trunk")
	}
	h.SetTrunk(0, 1, 0, 119)
	if h.LinkOf(0, 3).MBPerSecond != 119 {
		t.Error("SetTrunk did not apply")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{MBPerSecond: 10}
	if got := l.transferTime(10 * 1e6); got != time.Second {
		t.Errorf("transferTime = %v, want 1s", got)
	}
	if (Link{}).transferTime(100) != 0 {
		t.Error("zero-bandwidth link should be free")
	}
}

func TestSimSendErrors(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			if err := ctx.Send("nowhere", bytesPayload(1)); err == nil {
				return errors.New("unconnected port accepted")
			}
			if err := ctx.SendTo("nowhere", 0, bytesPayload(1)); err == nil {
				return errors.New("unconnected SendTo accepted")
			}
			if err := ctx.Send("out", nil); err == nil {
				return errors.New("nil payload accepted")
			}
			if err := ctx.SendTo("out", -1, bytesPayload(1)); err == nil {
				return errors.New("negative copy accepted")
			}
			if ctx.ConsumerCopies("nowhere") != 0 {
				return errors.New("phantom consumers")
			}
			if ctx.FilterName() != "src" || ctx.CopyIndex() != 0 || ctx.NumCopies() != 1 || ctx.Node() != 0 {
				return errors.New("identity accessors wrong")
			}
			return ctx.Send("out", bytesPayload(1))
		})
	}})
	counts := make([]int, 1)
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(counts, 0, nil)})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	if _, err := run(g, Uniform(1, 1, 0, 1000), nil); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 1 {
		t.Errorf("sink received %d", counts[0])
	}
}

func TestSimSendToOutOfRangeAborts(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			return ctx.SendTo("out", 5, bytesPayload(1)) // only 1 consumer copy
		})
	}})
	counts := make([]int, 1)
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(counts, 0, nil)})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.Explicit})
	if _, err := run(g, Uniform(1, 1, 0, 1000), nil); err == nil {
		t.Error("out-of-range SendTo did not fail the run")
	}
}

func TestSimTopologyTooSmall(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "a", Copies: 1, New: srcFilter(1, 1, 0), Nodes: []int{3}})
	if _, err := run(g, Uniform(2, 1, 0, 10), nil); err == nil {
		t.Error("undersized topology accepted")
	}
}

func TestSimMsgOverhead(t *testing.T) {
	// A zero-byte payload still pays the per-message overhead on the wire.
	counts := make([]int, 1)
	g := pipelineGraph(10, 0, 1, filter.RoundRobin, 0, []int{1}, counts)
	stats, err := run(g, Uniform(2, 1, 0, 0.0001), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 10 messages and the end-of-stream marker, each LinkOverheadBytes over a
	// 100 B/s link, serialized on it.
	if want := 11 * filter.LinkOverheadBytes * time.Second / 100; stats.Elapsed() < want {
		t.Errorf("overhead bytes not charged: %v, want >= %v", stats.Elapsed(), want)
	}
	if in := stats.Filter("sink").BytesIn; in != 0 {
		t.Errorf("sink counted %d bytes in; the overhead costs link time only", in)
	}
}

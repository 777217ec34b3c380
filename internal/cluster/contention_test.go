package cluster

import (
	"testing"
	"time"

	"haralick4d/internal/filter"
)

// workerPair builds two independent source→sink pairs whose sinks burn CPU,
// with the two sinks placed on the given nodes.
func workerPair(sinkA, sinkB int, counts []int) *filter.Graph {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "srcA", Copies: 1, New: srcFilter(8, 1, 0), Nodes: []int{0}})
	g.AddFilter(filter.FilterSpec{Name: "srcB", Copies: 1, New: srcFilter(8, 1, 0), Nodes: []int{0}})
	g.AddFilter(filter.FilterSpec{Name: "sinkA", Copies: 1, New: sinkFilter(counts[:1], 2*time.Millisecond, nil), Nodes: []int{sinkA}})
	g.AddFilter(filter.FilterSpec{Name: "sinkB", Copies: 1, New: sinkFilter(counts[1:], 2*time.Millisecond, nil), Nodes: []int{sinkB}})
	g.Connect(filter.ConnSpec{From: "srcA", FromPort: "out", To: "sinkA", ToPort: "in", Policy: filter.RoundRobin})
	g.Connect(filter.ConnSpec{From: "srcB", FromPort: "out", To: "sinkB", ToPort: "in", Policy: filter.RoundRobin})
	return g
}

// Co-locating two busy filters on one single-CPU node must roughly double
// the elapsed time versus placing them on two nodes (CPU multiplexing,
// paper §5.2).
func TestCPUContentionOnSharedNode(t *testing.T) {
	topo := &Topology{
		Speeds: []float64{1, 1, 1},
		LinkOf: func(a, b int) Link { return Link{ID: b, MBPerSecond: 1000} },
	}
	shared, err := Run(workerPair(1, 1, make([]int, 2)), topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	separate, err := Run(workerPair(1, 2, make([]int, 2)), topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(shared.Elapsed()) / float64(separate.Elapsed())
	if ratio < 1.5 {
		t.Errorf("co-located busy filters only %.2fx slower (%v vs %v)", ratio, shared.Elapsed(), separate.Elapsed())
	}
}

// Two processors of a dual-CPU box must run concurrently (no CPU sharing)
// and exchange buffers for free.
func TestDualCPUBox(t *testing.T) {
	h := NewHeterogeneous([]ClusterSpec{
		{Name: "src", Nodes: 1, Speed: 1, Latency: time.Microsecond, MBps: 119},
		{Name: "duals", Nodes: 1, CPUs: 2, Speed: 1, Latency: time.Microsecond, MBps: 119},
	}, Link{Latency: time.Microsecond, MBPerSecond: 119})
	if h.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", h.NumNodes())
	}
	if h.BoxOf(1) != h.BoxOf(2) || h.BoxOf(0) == h.BoxOf(1) {
		t.Fatal("box assignment wrong")
	}
	intra := h.LinkOf(1, 2)
	if intra.Latency != 0 || intra.MBPerSecond != 0 {
		t.Errorf("intra-box link not free: %+v", intra)
	}
	// Same-box processors do not contend for CPU.
	counts := make([]int, 2)
	stats, err := Run(workerPair(1, 2, counts), &h.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameNode, err := Run(workerPair(1, 1, make([]int, 2)), &h.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sameNode.Elapsed())/float64(stats.Elapsed()) < 1.5 {
		t.Errorf("dual-CPU box did not parallelize: box %v vs single cpu %v", stats.Elapsed(), sameNode.Elapsed())
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Errorf("lost buffers: %v", counts)
	}
}

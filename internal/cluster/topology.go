// Package cluster describes the simulated cluster the filter runtime's
// virtual clock runs on (filter.RunSim): virtual nodes with relative CPU
// speeds and virtual network links with latency and bandwidth. Filter copies
// run their real computation on one host while the virtual clock charges it
// to these nodes and links.
//
// This is the substitution for the paper's physical testbeds (a 24-node
// Pentium III cluster on switched FastEthernet, plus dual-Xeon and
// dual-Opteron clusters on Gigabit, interconnected through a shared
// 100 Mbit/s uplink). The model preserves what the paper's experiments
// measure — the ratio of computation to communication on every stream and
// the relative speed of heterogeneous nodes — while running as a single
// deterministic-ordering process.
package cluster

import (
	"fmt"
	"time"
)

// Link describes the virtual path between two nodes. Transfers on links
// sharing the same ID are serialized against each other (the link is a
// capacity resource); distinct IDs are independent.
type Link struct {
	ID          int
	Latency     time.Duration
	MBPerSecond float64 // payload bandwidth in megabytes per second
}

// transferTime returns how long the link is occupied moving n bytes.
func (l Link) transferTime(n int) time.Duration {
	if l.MBPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / (l.MBPerSecond * 1e6) * float64(time.Second))
}

// Topology is the virtual machine room: per-node relative speeds and a link
// function. Speed 1.0 is the reference processor (the paper's PIII-900);
// speed 2.4 means compute charges shrink by 2.4×.
type Topology struct {
	Speeds []float64
	// LinkOf returns the link used by a transfer from node a to node b
	// (a ≠ b; co-located transfers never touch the network).
	LinkOf func(a, b int) Link
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.Speeds) }

// Speed returns a node's relative CPU speed (filter.Machine).
func (t *Topology) Speed(node int) float64 { return t.Speeds[node] }

// Transfer returns the link a transfer of n bytes from node a to node b
// occupies, its latency and the bytes' occupancy of it (filter.Machine).
func (t *Topology) Transfer(a, b, n int) (link int, latency, occupancy time.Duration) {
	l := t.LinkOf(a, b)
	return l.ID, l.Latency, l.transferTime(n)
}

// Validate checks the topology is usable for a graph with n nodes.
func (t *Topology) Validate(n int) error {
	if len(t.Speeds) < n {
		return fmt.Errorf("cluster: topology has %d nodes, graph needs %d", len(t.Speeds), n)
	}
	for i, s := range t.Speeds {
		if s <= 0 {
			return fmt.Errorf("cluster: node %d has non-positive speed %v", i, s)
		}
	}
	if t.LinkOf == nil {
		return fmt.Errorf("cluster: topology has no link function")
	}
	return nil
}

// Uniform builds a homogeneous cluster of n nodes on one switched network:
// every transfer is serialized on the receiving node's interface (distinct
// receivers are independent, as on a non-blocking switch).
func Uniform(n int, speed float64, latency time.Duration, mbps float64) *Topology {
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = speed
	}
	return &Topology{
		Speeds: speeds,
		LinkOf: func(a, b int) Link {
			return Link{ID: b, Latency: latency, MBPerSecond: mbps}
		},
	}
}

// ClusterSpec describes one homogeneous sub-cluster of a heterogeneous
// environment. A physical machine ("box") with CPUs > 1 (e.g. the paper's
// dual-Xeon and dual-Opteron nodes) contributes one simulation node per
// processor; processors of the same box exchange buffers for free (pointer
// copy between co-located filters) and share the box's network interface.
type ClusterSpec struct {
	Name    string
	Nodes   int           // physical machines
	CPUs    int           // processors per machine (default 1)
	Speed   float64       // per-processor relative CPU speed
	Latency time.Duration // intra-cluster message latency
	MBps    float64       // intra-cluster per-receiver bandwidth
}

func (s ClusterSpec) cpus() int {
	if s.CPUs < 1 {
		return 1
	}
	return s.CPUs
}

// Heterogeneous composes sub-clusters into one topology. Simulation node
// ids are assigned in spec order, box by box, processor by processor.
// Intra-cluster transfers are serialized per receiving box (its NIC);
// transfers between two different clusters share a single trunk link per
// unordered cluster pair.
type Heterogeneous struct {
	Topology
	clusterOf []int
	boxOf     []int
	specs     []ClusterSpec
	trunks    map[[2]int]Link
	nextTrunk int
}

// NewHeterogeneous builds the composite topology. defaultInter's ID field is
// ignored; each cluster pair gets its own trunk resource.
func NewHeterogeneous(specs []ClusterSpec, defaultInter Link) *Heterogeneous {
	h := &Heterogeneous{trunks: map[[2]int]Link{}, specs: specs}
	box := 0
	for ci, spec := range specs {
		for i := 0; i < spec.Nodes; i++ {
			for c := 0; c < spec.cpus(); c++ {
				h.Speeds = append(h.Speeds, spec.Speed)
				h.clusterOf = append(h.clusterOf, ci)
				h.boxOf = append(h.boxOf, box)
			}
			box++
		}
	}
	// Trunk IDs live above the per-box receiver NIC IDs.
	h.nextTrunk = box
	for a := range specs {
		for b := a + 1; b < len(specs); b++ {
			h.trunks[[2]int{a, b}] = Link{ID: h.nextTrunk, Latency: defaultInter.Latency, MBPerSecond: defaultInter.MBPerSecond}
			h.nextTrunk++
		}
	}
	h.LinkOf = func(x, y int) Link {
		if h.boxOf[x] == h.boxOf[y] {
			// Processors of the same box: memory hand-off, free.
			return Link{ID: h.boxOf[y]}
		}
		ca, cb := h.clusterOf[x], h.clusterOf[y]
		if ca == cb {
			spec := specs[ca]
			return Link{ID: h.boxOf[y], Latency: spec.Latency, MBPerSecond: spec.MBps}
		}
		if ca > cb {
			ca, cb = cb, ca
		}
		return h.trunks[[2]int{ca, cb}]
	}
	return h
}

// BoxOf returns the physical machine index of a simulation node.
func (h *Heterogeneous) BoxOf(node int) int { return h.boxOf[node] }

// SetTrunk overrides the link between two clusters (by spec index), e.g. to
// model the Gigabit XEON–OPTERON path next to the shared 100 Mbit uplink to
// the PIII cluster.
func (h *Heterogeneous) SetTrunk(clusterA, clusterB int, latency time.Duration, mbps float64) {
	if clusterA > clusterB {
		clusterA, clusterB = clusterB, clusterA
	}
	key := [2]int{clusterA, clusterB}
	trunk, ok := h.trunks[key]
	if !ok {
		trunk = Link{ID: h.nextTrunk}
		h.nextTrunk++
	}
	trunk.Latency = latency
	trunk.MBPerSecond = mbps
	h.trunks[key] = trunk
}

// ClusterOf returns the spec index of the cluster containing the node.
func (h *Heterogeneous) ClusterOf(node int) int { return h.clusterOf[node] }

// NodesOf returns the node ids of the given cluster.
func (h *Heterogeneous) NodesOf(cluster int) []int {
	var out []int
	for n, c := range h.clusterOf {
		if c == cluster {
			out = append(out, n)
		}
	}
	return out
}

// Paper-testbed constants (§5.2–5.3): relative speeds are clock-ratio
// estimates against the PIII-900 reference; networks are 100 Mbit
// FastEthernet (~11.9 MB/s payload) and Gigabit (~119 MB/s payload).
const (
	SpeedPIII = 1.0
	// The 2.4 GHz Xeon of the paper's era is a Netburst (P4) core whose
	// per-clock throughput on integer, branchy kernels is roughly 0.6 of
	// the P6-class PIII: 2.4/0.9 × 0.6 ≈ 1.6.
	SpeedXeon = 1.6
	// The Opteron 1.4 GHz sustains ≈1.4× P6 per clock on these kernels:
	// 1.4/0.9 × 1.4 ≈ 2.2.
	SpeedOpteron = 2.2

	FastEthernetMBps = 11.9
	GigabitMBps      = 119.0
	LANLatency       = 100 * time.Microsecond
)

// PIIICluster returns the paper's homogeneous 24-node PIII testbed.
func PIIICluster(nodes int) *Topology {
	return Uniform(nodes, SpeedPIII, LANLatency, FastEthernetMBps)
}

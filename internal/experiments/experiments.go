package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"haralick4d/internal/cluster"
	"haralick4d/internal/core"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
)

// TextureNodeSweep is the processor-count axis of the homogeneous
// experiments (paper Figures 7–9: 1 to 16 texture processors).
var TextureNodeSweep = []int{1, 2, 4, 8, 16}

// homogeneous node-id plan for the PIII-cluster experiments: the input
// dataset "was distributed across 4 I/O nodes. One of the nodes ... was
// used to run the IIC filter. One USO filter was used for output. The
// remaining nodes were used to run the HMP filters or the HCC and HPC
// filters."
type homPlan struct {
	rfr     []int
	iic     []int
	out     []int
	texture []int // texture node pool
}

func newHomPlan(storage, iicCopies, textureNodes int) homPlan {
	p := homPlan{}
	next := 0
	take := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}
	p.rfr = take(storage)
	p.iic = take(iicCopies)
	p.out = take(1)
	p.texture = take(textureNodes)
	return p
}

func (p homPlan) numNodes() int { return p.texture[len(p.texture)-1] + 1 }

// hccHPCSplit applies the paper's 4-to-1 node ratio between HCC and HPC
// ("the HCC filter was about 4 to 5 times more expensive than the HPC
// filter"); with one node, both run co-located on it.
func hccHPCSplit(textureNodes []int) (hcc, hpc []int) {
	n := len(textureNodes)
	if n == 1 {
		return textureNodes, textureNodes
	}
	nHPC := int(math.Round(float64(n) / 5.0))
	if nHPC < 1 {
		nHPC = 1
	}
	return textureNodes[:n-nHPC], textureNodes[n-nHPC:]
}

// simulate builds and runs a configuration Repeats times on the simulated
// cluster, returning the report of the run with the smallest virtual elapsed
// time (the one least polluted by host jitter).
func (e *Env) simulate(mk func() (*pipeline.Config, *pipeline.Layout, error), topo *cluster.Topology) (*metrics.RunReport, error) {
	reps := e.Repeats
	if reps < 1 {
		reps = 1
	}
	var best *metrics.RunReport
	for r := 0; r < reps; r++ {
		// Normalize the collector's state so that garbage from earlier
		// experiments is not charged to this run's filters (the emulation
		// charges all host time, GC assists included, as virtual compute).
		runtime.GC()
		cfg, layout, err := mk()
		if err != nil {
			return nil, err
		}
		cfg.ReadAhead = e.ReadAhead
		g, _, _, err := pipeline.Build(e.Store, cfg, layout)
		if err != nil {
			return nil, err
		}
		report, err := pipeline.RunContext(e.ctx(), g, pipeline.EngineSim, &pipeline.RunOptions{
			Options:      filter.Options{QueueBytes: e.QueueBytes, StallTimeout: e.StallTimeout},
			Topology:     topo,
			ComputeScale: e.ComputeScale,
		})
		if err != nil {
			return nil, err
		}
		if best == nil || report.Elapsed() < best.Elapsed() {
			best = report
		}
	}
	e.LastReport = best
	return best, nil
}

// runHomogeneous executes one homogeneous-cluster configuration on the
// simulated PIII cluster and returns its run report (virtual time).
func (e *Env) runHomogeneous(impl pipeline.Impl, rep core.Representation, textureNodes int,
	overlap bool, policy filter.Policy, iicCopies int) (*metrics.RunReport, error) {
	plan := newHomPlan(e.Scale.StorageNodes, iicCopies, textureNodes)
	mk := func() (*pipeline.Config, *pipeline.Layout, error) {
		cfg := &pipeline.Config{
			Analysis:   e.analysis(rep),
			ChunkShape: e.Scale.ChunkShape,
			Impl:       impl,
			Policy:     policy,
			Output:     pipeline.OutputCollect,
		}
		layout := &pipeline.Layout{
			SourceNodes: plan.rfr,
			IICNodes:    plan.iic,
			OutputNodes: plan.out,
		}
		switch impl {
		case pipeline.HMPImpl:
			layout.HMPNodes = plan.texture
		case pipeline.SplitImpl:
			if overlap {
				// One HCC and one HPC co-located on every texture node.
				layout.HCCNodes = plan.texture
				layout.HPCNodes = plan.texture
			} else {
				layout.HCCNodes, layout.HPCNodes = hccHPCSplit(plan.texture)
			}
		}
		return cfg, layout, nil
	}
	return e.simulate(mk, cluster.PIIICluster(plan.numNodes()))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// Fig7a regenerates Figure 7(a): the HMP implementation with full vs sparse
// co-occurrence matrix representation, execution time against the number of
// texture processors. Paper shape: sparse is *worse* (no communication
// between matrix computation and parameter calculation, so the sparse
// build/access overhead is pure loss).
func Fig7a(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "7a",
		Title:  "HMP implementation: full vs sparse matrix representation",
		XLabel: "processors",
		YLabel: "execution time (virtual s)",
	}
	for _, rep := range []core.Representation{core.FullMatrix, core.SparseMatrix} {
		s := Series{Label: "HMP " + rep.String()}
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(pipeline.HMPImpl, rep, n, false, filter.DemandDriven, 1)
			if err != nil {
				return nil, fmt.Errorf("fig7a n=%d rep=%v: %w", n, rep, err)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, seconds(report.Elapsed()))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: sparse representation performs worse than full in the HMP filter")
	return fig, nil
}

// Fig7b regenerates Figure 7(b): the split HCC+HPC implementation with full
// vs sparse representation. Paper shape: sparse is *better* — it shrinks
// the HCC→HPC stream dramatically.
func Fig7b(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "7b",
		Title:  "split HCC+HPC implementation: full vs sparse matrix representation",
		XLabel: "processors",
		YLabel: "execution time (virtual s)",
	}
	for _, rep := range []core.Representation{core.FullMatrix, core.SparseMatrix} {
		s := Series{Label: "HCC+HPC " + rep.String()}
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(pipeline.SplitImpl, rep, n, false, filter.DemandDriven, 1)
			if err != nil {
				return nil, fmt.Errorf("fig7b n=%d rep=%v: %w", n, rep, err)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, seconds(report.Elapsed()))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: sparse representation achieves better performance in the split case (reduced communication)")
	return fig, nil
}

// Fig8 regenerates Figure 8: co-locating HCC and HPC on every texture node
// ("Overlap") vs separate nodes ("No Overlap") vs the HMP implementation.
// Per the paper, HMP uses the full representation and the split variants
// use sparse. Paper shape: Overlap best, despite CPU sharing.
func Fig8(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "8",
		Title:  "co-locating HCC and HPC vs separate processors vs HMP",
		XLabel: "processors",
		YLabel: "execution time (virtual s)",
	}
	type variant struct {
		label   string
		impl    pipeline.Impl
		rep     core.Representation
		overlap bool
	}
	for _, v := range []variant{
		{"HCC+HPC No Overlap", pipeline.SplitImpl, core.SparseMatrix, false},
		{"HCC+HPC All Overlap", pipeline.SplitImpl, core.SparseMatrix, true},
		{"HMP", pipeline.HMPImpl, core.FullMatrix, false},
	} {
		s := Series{Label: v.label}
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(v.impl, v.rep, n, v.overlap, filter.DemandDriven, 1)
			if err != nil {
				return nil, fmt.Errorf("fig8 %s n=%d: %w", v.label, n, err)
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, seconds(report.Elapsed()))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, "paper: Overlap achieves the best performance; the split implementation beats HMP even on one node (pipelining)")
	return fig, nil
}

// Fig9 regenerates Figure 9: the processing time of each filter (RFR, IIC,
// HCC, HPC, USO) in the split implementation as texture nodes are added.
// Paper shape: HCC/HPC times fall with more nodes; the single IIC flattens
// out and becomes the bottleneck by 16 nodes; RFR and output are
// negligible.
func Fig9(e *Env) (*Figure, error) {
	fig := &Figure{
		ID:     "9",
		Title:  "per-filter processing time, split HCC+HPC implementation",
		XLabel: "processors",
		YLabel: "max per-copy compute time (virtual s)",
	}
	names := []string{"RFR", "IIC", "HCC", "HPC", "OUT"}
	series := make([]Series, len(names))
	for i, n := range names {
		series[i].Label = n
	}
	for _, n := range TextureNodeSweep {
		report, err := e.runHomogeneous(pipeline.SplitImpl, core.SparseMatrix, n, false, filter.DemandDriven, 1)
		if err != nil {
			return nil, fmt.Errorf("fig9 n=%d: %w", n, err)
		}
		for i, name := range names {
			series[i].X = append(series[i].X, float64(n))
			series[i].Y = append(series[i].Y, seconds(maxBusy(report, name)))
		}
	}
	fig.Series = series
	fig.Notes = append(fig.Notes,
		"paper: read (RFR) and write (USO) overheads negligible; HCC and HPC decrease with nodes; IIC becomes the bottleneck at 16 nodes")
	return fig, nil
}

// piiiXeonTopology builds the paper's first heterogeneous environment: the
// PIII cluster plus the dual-Xeon cluster, joined by a shared 100 Mbit/s
// uplink.
func piiiXeonTopology() *cluster.Heterogeneous {
	h := cluster.NewHeterogeneous([]cluster.ClusterSpec{
		{Name: "PIII", Nodes: 24, CPUs: 1, Speed: cluster.SpeedPIII, Latency: cluster.LANLatency, MBps: cluster.FastEthernetMBps},
		{Name: "XEON", Nodes: 5, CPUs: 2, Speed: cluster.SpeedXeon, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
	}, cluster.Link{Latency: cluster.LANLatency, MBPerSecond: cluster.FastEthernetMBps})
	return h
}

// Fig10 regenerates Figure 10: HMP vs split HCC+HPC in the heterogeneous
// PIII+XEON environment. Per the paper: 4 RFR, 4 IIC and 2 output filters
// on the PIII cluster; texture filters across 13 PIII nodes and the 5 XEON
// boxes; HMP gets one copy per processor (23), the split implementation
// co-locates one HCC and one HPC on each of the 18 nodes. Paper shape: the
// split implementation wins.
func Fig10(e *Env) (*Figure, error) {
	if e.Scale.StorageNodes != 4 {
		return nil, fmt.Errorf("fig10 requires 4 storage nodes, scale has %d", e.Scale.StorageNodes)
	}
	h := piiiXeonTopology()
	// PIII vnodes 0..23; XEON vnodes 24..33 (two per box).
	piiiTexture := make([]int, 13)
	for i := range piiiTexture {
		piiiTexture[i] = 10 + i
	}
	xeonFirst := []int{24, 26, 28, 30, 32}
	xeonSecond := []int{25, 27, 29, 31, 33}
	base := pipeline.Layout{
		SourceNodes: []int{0, 1, 2, 3},
		IICNodes:    []int{4, 5, 6, 7},
		OutputNodes: []int{8, 9},
	}
	fig := &Figure{
		ID:     "10",
		Title:  "heterogeneous PIII+XEON: HMP vs split HCC+HPC",
		YLabel: "execution time (virtual s)",
	}
	// A bar comparison needs tighter timing than a trend curve: use extra
	// repetitions to squeeze host jitter out of the emulation.
	savedReps := e.Repeats
	if e.Repeats < 7 {
		e.Repeats = 7
	}
	defer func() { e.Repeats = savedReps }()

	// HMP: one transparent copy per processor, 13 + 10 = 23 copies.
	hmpLayout := base
	hmpLayout.HMPNodes = append(append([]int{}, piiiTexture...), append(append([]int{}, xeonFirst...), xeonSecond...)...)
	// Split: 18 co-located HCC/HPC pairs; on the dual-CPU XEON boxes the
	// two filters run on separate processors of the same box.
	splitLayout := base
	splitLayout.HCCNodes = append(append([]int{}, piiiTexture...), xeonFirst...)
	splitLayout.HPCNodes = append(append([]int{}, piiiTexture...), xeonSecond...)

	for _, v := range []struct {
		label  string
		impl   pipeline.Impl
		rep    core.Representation
		layout pipeline.Layout
	}{
		{"HMP implementation", pipeline.HMPImpl, core.FullMatrix, hmpLayout},
		{"HCC+HPC", pipeline.SplitImpl, core.SparseMatrix, splitLayout},
	} {
		v := v
		report, err := e.simulate(func() (*pipeline.Config, *pipeline.Layout, error) {
			cfg := &pipeline.Config{
				Analysis:   e.analysis(v.rep),
				ChunkShape: e.Scale.ChunkShape,
				Impl:       v.impl,
				Policy:     filter.DemandDriven,
				Output:     pipeline.OutputCollect,
			}
			layout := v.layout
			return cfg, &layout, nil
		}, &h.Topology)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", v.label, err)
		}
		fig.Series = append(fig.Series, Series{Label: v.label, Y: []float64{seconds(report.Elapsed())}})
	}
	fig.Notes = append(fig.Notes, "paper: the split implementation achieves better performance across the slow inter-cluster link")
	return fig, nil
}

// Fig11 regenerates Figure 11: round-robin vs demand-driven buffer
// scheduling on the XEON+OPTERON environment. Per the paper: 4 RFR, 1 IIC,
// 2 HPC and the output filter on the OPTERON cluster; 4 HCC filters on each
// cluster. Paper shape: demand-driven wins — it steers buffers to the
// OPTERON HCC copies whose HPC consumers are local.
func Fig11(e *Env) (*Figure, error) {
	if e.Scale.StorageNodes != 4 {
		return nil, fmt.Errorf("fig11 requires 4 storage nodes, scale has %d", e.Scale.StorageNodes)
	}
	h := cluster.NewHeterogeneous([]cluster.ClusterSpec{
		{Name: "XEON", Nodes: 5, CPUs: 2, Speed: cluster.SpeedXeon, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
		{Name: "OPTERON", Nodes: 6, CPUs: 2, Speed: cluster.SpeedOpteron, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
	}, cluster.Link{Latency: cluster.LANLatency, MBPerSecond: cluster.GigabitMBps})
	// XEON vnodes 0..9; OPTERON vnodes 10..21.
	layout := &pipeline.Layout{
		SourceNodes: []int{10, 12, 14, 16},             // separate OPTERON boxes
		IICNodes:    []int{18},                         // its own box
		HPCNodes:    []int{11, 13},                     // second processors of RFR boxes
		HCCNodes:    []int{0, 2, 4, 6, 15, 17, 19, 21}, // 4 XEON + 4 OPTERON
		OutputNodes: []int{20},
	}
	fig := &Figure{
		ID:     "11",
		Title:  "round-robin vs demand-driven buffer scheduling (XEON+OPTERON)",
		YLabel: "execution time (virtual s)",
	}
	// Scheduling only differentiates when the scheduler receives feedback
	// while buffers are still unassigned, so this experiment uses a shallow
	// buffer pool (the paper notes the buffer-size sensitivity in its §5.3
	// discussion). Extra repetitions tighten the bar comparison.
	savedBytes, savedReps := e.QueueBytes, e.Repeats
	e.QueueBytes = 4 * e.Scale.chunkBytes()
	if e.Repeats < 7 {
		e.Repeats = 7
	}
	defer func() { e.QueueBytes, e.Repeats = savedBytes, savedReps }()
	for _, policy := range []filter.Policy{filter.RoundRobin, filter.DemandDriven} {
		policy := policy
		report, err := e.simulate(func() (*pipeline.Config, *pipeline.Layout, error) {
			cfg := &pipeline.Config{
				Analysis:   e.analysis(core.SparseMatrix),
				ChunkShape: e.Scale.ChunkShape,
				Impl:       pipeline.SplitImpl,
				Policy:     policy,
				Output:     pipeline.OutputCollect,
			}
			return cfg, layout, nil
		}, &h.Topology)
		if err != nil {
			return nil, fmt.Errorf("fig11 %v: %w", policy, err)
		}
		fig.Series = append(fig.Series, Series{Label: policy.String(), Y: []float64{seconds(report.Elapsed())}})
	}
	fig.Notes = append(fig.Notes, "paper: the demand driven method performs better than the round robin method",
		fmt.Sprintf("buffer pool %d bytes per copy, 4 texture chunks (shallow pools give the scheduler feedback; see §5.3)", 4*e.Scale.chunkBytes()))
	return fig, nil
}

// maxBusy is the largest per-copy busy time of the named filter in a run
// report: the paper's per-filter processing time (Fig. 9).
func maxBusy(report *metrics.RunReport, name string) time.Duration {
	var most int64
	if f := report.Filter(name); f != nil {
		for _, c := range f.Copies {
			most = max(most, c.BusyNS)
		}
	}
	return time.Duration(most)
}

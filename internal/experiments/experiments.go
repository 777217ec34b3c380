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
	"haralick4d/internal/runspec"
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

// simulate runs s repeats times on the simulated cluster topo, each copy's
// input queue budgeted to queueBytes, and returns the fastest run's report
// (see run).
func (e *Env) simulate(s runspec.Spec, layout pipeline.Layout, topo *cluster.Topology, queueBytes, repeats int) (*metrics.RunReport, error) {
	return e.run(s, layout, pipeline.EngineSim, pipeline.RunOptions{
		Options:      filter.Options{QueueBytes: queueBytes},
		Topology:     topo,
		ComputeScale: e.ComputeScale,
	}, repeats)
}

// run prepares s through the one run body, with layout in place of the
// spec's own placement and the figures' direction set, and runs it repeats
// times on engine over a freshly opened dataset each time (so the report's
// backend counters are the run's own). It returns the report of the run
// with the smallest elapsed time, the one least polluted by host jitter.
func (e *Env) run(s runspec.Spec, layout pipeline.Layout, engine pipeline.Engine, ro pipeline.RunOptions, repeats int) (*metrics.RunReport, error) {
	place := func(cfg *pipeline.Config, l *pipeline.Layout) error {
		cfg.Analysis = axisAnalysis(s, s.Representation)
		*l = layout
		return nil
	}
	var best *metrics.RunReport
	for r := 0; r < max(repeats, 1); r++ {
		// Normalize the collector's state so that garbage from earlier
		// experiments is not charged to this run's filters (the emulation
		// charges all host time, GC assists included, as virtual compute).
		runtime.GC()
		report, err := e.runOnce(&s, place, engine, &ro)
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

// runOnce opens s's dataset, prepares s with place and runs it on engine.
func (e *Env) runOnce(s *runspec.Spec, place func(*pipeline.Config, *pipeline.Layout) error, engine pipeline.Engine, ro *pipeline.RunOptions) (*metrics.RunReport, error) {
	st, err := pipeline.OpenDataset(e.ctx(), s, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	p, err := pipeline.Prepare(st, s, pipeline.Checkpoint{}, place)
	if err != nil {
		return nil, err
	}
	report, _, err := p.Run(e.ctx(), engine, ro)
	return report, err
}

// runHomogeneous runs s on the simulated PIII cluster with the paper's
// homogeneous placement: storage nodes first, then iicCopies IIC nodes, the
// output node and textureNodes texture nodes; the split implementation
// co-locates HCC and HPC on every texture node when overlap is set, and
// splits the nodes 4:1 otherwise.
func (e *Env) runHomogeneous(s runspec.Spec, textureNodes int, overlap bool, iicCopies int) (*metrics.RunReport, error) {
	plan := newHomPlan(e.Scale.StorageNodes, iicCopies, textureNodes)
	layout := pipeline.Layout{SourceNodes: plan.rfr, IICNodes: plan.iic, OutputNodes: plan.out}
	switch {
	case s.Impl == runspec.HMP:
		layout.HMPNodes = plan.texture
	case overlap:
		// One HCC and one HPC co-located on every texture node.
		layout.HCCNodes, layout.HPCNodes = plan.texture, plan.texture
	default:
		layout.HCCNodes, layout.HPCNodes = hccHPCSplit(plan.texture)
	}
	return e.simulate(s, layout, cluster.PIIICluster(plan.numNodes()), e.QueueBytes, e.Repeats)
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
		spec := e.Spec
		spec.Representation = rep
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(spec, n, false, 1)
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
		spec := e.Spec
		spec.Impl, spec.Representation = runspec.Split, rep
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(spec, n, false, 1)
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
		impl    runspec.Impl
		rep     core.Representation
		overlap bool
	}
	for _, v := range []variant{
		{"HCC+HPC No Overlap", runspec.Split, core.SparseMatrix, false},
		{"HCC+HPC All Overlap", runspec.Split, core.SparseMatrix, true},
		{"HMP", runspec.HMP, core.FullMatrix, false},
	} {
		s := Series{Label: v.label}
		spec := e.Spec
		spec.Impl, spec.Representation = v.impl, v.rep
		for _, n := range TextureNodeSweep {
			report, err := e.runHomogeneous(spec, n, v.overlap, 1)
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
	spec := e.Spec
	spec.Impl, spec.Representation = runspec.Split, core.SparseMatrix
	for _, n := range TextureNodeSweep {
		report, err := e.runHomogeneous(spec, n, false, 1)
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
		impl   runspec.Impl
		rep    core.Representation
		layout pipeline.Layout
	}{
		{"HMP implementation", runspec.HMP, core.FullMatrix, hmpLayout},
		{"HCC+HPC", runspec.Split, core.SparseMatrix, splitLayout},
	} {
		spec := e.Spec
		spec.Impl, spec.Representation = v.impl, v.rep
		// A bar comparison needs tighter timing than a trend curve: extra
		// repetitions squeeze host jitter out of the emulation.
		report, err := e.simulate(spec, v.layout, &h.Topology, e.QueueBytes, max(e.Repeats, 7))
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
	layout := pipeline.Layout{
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
	spec := e.Spec
	spec.Impl, spec.Representation = runspec.Split, core.SparseMatrix
	for _, policy := range []runspec.Policy{runspec.RoundRobin, runspec.DemandDriven} {
		spec.Policy = policy
		report, err := e.simulate(spec, layout, &h.Topology, 4*e.Scale.chunkBytes(), max(e.Repeats, 7))
		if err != nil {
			return nil, fmt.Errorf("fig11 %v: %w", policy.Filter(), err)
		}
		fig.Series = append(fig.Series, Series{Label: policy.Filter().String(), Y: []float64{seconds(report.Elapsed())}})
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

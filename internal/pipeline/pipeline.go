// Package pipeline composes the paper's filters into its two end-to-end
// instantiations — the combined HMP implementation (Fig. 5) and the split
// HCC+HPC implementation (Fig. 4) — over disk-resident or in-memory
// datasets, with configurable placement, copy counts, buffer scheduling
// policy and output mode, and runs them on any of the three engines.
package pipeline

import (
	"context"
	"fmt"
	"net"
	"time"

	"haralick4d/internal/autotune"
	"haralick4d/internal/checkpoint"
	"haralick4d/internal/cluster"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/dicom"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/sem"
	"haralick4d/internal/volume"
)

// Impl selects the texture-filter decomposition.
type Impl int

const (
	// HMPImpl performs co-occurrence matrix computation and parameter
	// calculation inside a single filter.
	HMPImpl Impl = iota
	// SplitImpl task-distributes the two operations among pipelined HCC and
	// HPC filters.
	SplitImpl
)

// String returns the implementation's flag name.
func (i Impl) String() string {
	switch i {
	case HMPImpl:
		return "hmp"
	case SplitImpl:
		return "split"
	}
	return fmt.Sprintf("impl(%d)", int(i))
}

// ParseImpl is the inverse of String.
func ParseImpl(s string) (Impl, error) {
	switch s {
	case "hmp":
		return HMPImpl, nil
	case "split":
		return SplitImpl, nil
	}
	return 0, fmt.Errorf("pipeline: unknown implementation %q", s)
}

// OutputMode selects the output filter set.
type OutputMode int

const (
	// OutputCollect assembles results in memory (library use, tests).
	OutputCollect OutputMode = iota
	// OutputUSO streams unstitched parameter values to disk.
	OutputUSO
	// OutputJPEG stitches full 4D parameter datasets and writes JPEG slice
	// series (HIC + JIW).
	OutputJPEG
)

// Layout assigns filter copies to nodes. The length of each slice is the
// copy count of that filter. A nil slice defaults to one copy on node 0
// (RFR defaults to one copy per storage node, all on node 0).
type Layout struct {
	SourceNodes []int // RFR copies (must equal the dataset's storage nodes) or GridSource copies
	IICNodes    []int // explicit IIC copies
	HMPNodes    []int // texture copies for HMPImpl
	HCCNodes    []int // split implementation
	HPCNodes    []int
	OutputNodes []int // USO/Collector copies, or HIC copies for OutputJPEG
	JIWNodes    []int // JPEG writers; defaults to OutputNodes
}

// Config carries everything the graph builder needs besides placement.
type Config struct {
	Analysis        core.Config
	ChunkShape      [4]int // IIC-to-TEXTURE chunk voxel shape
	IOChunk         [2]int // RFR read window; zero reads whole slices
	ReadAhead       int    // I/O windows each reader copy keeps in flight ahead of its emit loop; 0 = synchronous, ReadAheadAuto = self-sized
	PacketsPerChunk int    // HCC matrix packets per chunk (default 4)
	Impl            Impl
	Policy          filter.Policy // buffer scheduling into texture (and HPC) copies
	Output          OutputMode
	OutDir          string // for OutputUSO / OutputJPEG
	// FaultPolicy selects how the readers handle degraded slices (checksum
	// mismatch, truncation, missing file): fault.FailFast (zero value)
	// aborts the run, fault.SkipDegraded completes the healthy remainder and
	// reports what was skipped.
	FaultPolicy fault.Policy
	// Journal, when set, receives a durable record of every parameter
	// portion the sink persists, making the run resumable after a crash.
	// Usually opened by PrepareCheckpoint. OutputCollect and OutputUSO only.
	Journal *checkpoint.Journal
	// Recovered is the verified state loaded from an earlier run's journal;
	// chunks it proves complete are skipped from the readers onward, and the
	// sink is pre-seeded with the recovered portions.
	Recovered *checkpoint.State
	// AutoTune, when set, registers the graph's live knob with this
	// controller as the graph is built: multi-copy texture filters share a
	// resizable admission semaphore. Pass the same controller in
	// RunOptions.AutoTune so the engines drive its feedback loop; tuning
	// changes scheduling only, so outputs match the untuned run
	// bit-for-bit.
	AutoTune *autotune.Controller
	// ReadAheadGate, when set, is the resizable prefetch bound the readers
	// share (one credit per window in flight) instead of a ReadAhead depth
	// of their own — the injection point for an external resource governor
	// (the serve daemon splits one global budget across jobs through these).
	ReadAheadGate *sem.Sem
	// Admission, when set, is the resizable compute-admission semaphore the
	// texture filters share — the governor's counterpart to ReadAheadGate.
	// Mutually exclusive with AutoTune, which builds its own.
	Admission *sem.Sem
}

// Validate normalizes the config and reports the first problem.
func (c *Config) Validate(datasetDims [4]int) error {
	if err := c.Analysis.Validate(); err != nil {
		return err
	}
	if err := c.Analysis.CheckRegion(datasetDims); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if c.PacketsPerChunk < 0 {
		return fmt.Errorf("pipeline: PacketsPerChunk %d must be >= 0 (0 selects the default)", c.PacketsPerChunk)
	}
	if c.ChunkShape == ([4]int{}) {
		c.ChunkShape = defaultChunkShape(datasetDims, c.Analysis.ROI)
	}
	if c.Impl < HMPImpl || c.Impl > SplitImpl {
		return fmt.Errorf("pipeline: invalid implementation %d", int(c.Impl))
	}
	if c.Policy == filter.Explicit {
		return fmt.Errorf("pipeline: texture distribution policy must be round-robin or demand-driven")
	}
	if c.Output != OutputCollect && c.OutDir == "" {
		return fmt.Errorf("pipeline: disk output modes need OutDir")
	}
	if (c.Journal != nil || c.Recovered != nil) && c.Output == OutputJPEG {
		// HIC stitches whole feature volumes in memory before JIW writes a
		// pixel, so no durable portion record exists to journal against.
		return fmt.Errorf("pipeline: checkpointing requires OutputCollect or OutputUSO (JPEG stitching holds no durable portions)")
	}
	if c.Recovered != nil && c.Journal == nil {
		return fmt.Errorf("pipeline: Recovered state set without a Journal to continue")
	}
	if c.AutoTune != nil && c.Admission != nil {
		return fmt.Errorf("pipeline: AutoTune and an injected admission semaphore would fight over the same knob (set one)")
	}
	return nil
}

// resumeSkip converts the recovered journal state into the set of texture
// chunks whose outputs are already durable; readers prune them at the
// cheapest level they can (whole I/O windows, whole slices, per-chunk
// pieces).
func (c *Config) resumeSkip(chunker *volume.Chunker) (map[int]bool, error) {
	if c.Recovered == nil {
		return nil, nil
	}
	feats := make([]int, len(c.Analysis.Features))
	for i, f := range c.Analysis.Features {
		feats[i] = int(f)
	}
	return checkpoint.CompleteChunks(c.Recovered, chunker, feats)
}

// ReadAheadAuto as Config.ReadAhead lets every reader copy size its own
// depth (readahead.NewAuto): the default of cmd/haralick4d.
const ReadAheadAuto = readahead.Auto

// admission returns the compute-admission semaphore for copies compute
// slots: the injected governor semaphore when one is set, otherwise one
// registered with the autotune controller, otherwise nil (no admission
// throttle; with one slot there is nothing to shed).
func (c *Config) admission(copies int) *sem.Sem {
	if c.Admission != nil {
		return c.Admission
	}
	if c.AutoTune == nil || copies <= 1 {
		return nil
	}
	return c.AutoTune.EnableAdmission(copies, 1, copies)
}

// defaultChunkShape picks a chunk covering the full x–y extent and a
// moderate z–t block — a paper-like middle ground between overlap overhead
// and distribution balance.
func defaultChunkShape(dims, roi [4]int) [4]int {
	var cs [4]int
	cs[0], cs[1] = dims[0], dims[1]
	for k := 2; k < 4; k++ {
		cs[k] = roi[k] + 3
		if cs[k] > dims[k] {
			cs[k] = dims[k]
		}
	}
	return cs
}

func nodesOrDefault(nodes []int, copies int) []int {
	if nodes != nil {
		return nodes
	}
	return make([]int, copies)
}

// Build constructs the filter graph over a disk-resident dataset. It
// returns the graph, the in-memory results sink (nil unless OutputCollect)
// and the output dimensions.
func Build(store *dataset.Store, cfg *Config, layout *Layout) (*filter.Graph, *filters.Results, [4]int, error) {
	var outDims [4]int
	if layout == nil {
		layout = &Layout{}
	}
	if err := cfg.Validate(store.Meta.Dims); err != nil {
		return nil, nil, outDims, err
	}
	srcNodes := nodesOrDefault(layout.SourceNodes, store.Meta.Nodes)
	if len(srcNodes) != store.Meta.Nodes {
		return nil, nil, outDims, fmt.Errorf("pipeline: %d RFR copies for %d storage nodes", len(srcNodes), store.Meta.Nodes)
	}
	chunker, err := volume.NewChunker(store.Meta.Dims, cfg.ChunkShape, cfg.Analysis.ROI)
	if err != nil {
		return nil, nil, outDims, err
	}
	outDims = chunker.OutputDims()
	skip, err := cfg.resumeSkip(chunker)
	if err != nil {
		return nil, nil, outDims, err
	}

	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{
		Name:   "RFR",
		Copies: len(srcNodes),
		New: filters.NewRFR(filters.RFRConfig{
			Store:         store,
			Chunker:       chunker,
			GrayLevels:    cfg.Analysis.GrayLevels,
			IOChunk:       cfg.IOChunk,
			ReadAhead:     cfg.ReadAhead,
			ReadAheadGate: cfg.ReadAheadGate,
			FaultPolicy:   cfg.FaultPolicy,
			Skip:          skip,
		}),
		Nodes: srcNodes,
	})
	iicNodes := nodesOrDefault(layout.IICNodes, 1)
	g.AddFilter(filter.FilterSpec{
		Name:   "IIC",
		Copies: len(iicNodes),
		New:    filters.NewIIC(filters.IICConfig{Chunker: chunker}),
		Nodes:  iicNodes,
	})
	g.Connect(filter.ConnSpec{From: "RFR", FromPort: filters.PortOut, To: "IIC", ToPort: filters.PortIn, Policy: filter.Explicit})

	res, err := addTextureAndOutput(g, "IIC", cfg, layout, outDims)
	if err != nil {
		return nil, nil, outDims, err
	}
	return g, res, outDims, nil
}

// BuildDICOM constructs the filter graph over a DICOM study directory (see
// internal/dicom): identical to Build except that the input stage is the
// DICOMFileReader filter, the paper's named RFR replacement. The study's
// window center/width supplies the requantization range.
func BuildDICOM(study *dicom.Study, cfg *Config, layout *Layout) (*filter.Graph, *filters.Results, [4]int, error) {
	var outDims [4]int
	if layout == nil {
		layout = &Layout{}
	}
	if err := cfg.Validate(study.Dims); err != nil {
		return nil, nil, outDims, err
	}
	srcNodes := nodesOrDefault(layout.SourceNodes, study.Nodes)
	if len(srcNodes) != study.Nodes {
		return nil, nil, outDims, fmt.Errorf("pipeline: %d DFR copies for %d storage nodes", len(srcNodes), study.Nodes)
	}
	chunker, err := volume.NewChunker(study.Dims, cfg.ChunkShape, cfg.Analysis.ROI)
	if err != nil {
		return nil, nil, outDims, err
	}
	outDims = chunker.OutputDims()
	skip, err := cfg.resumeSkip(chunker)
	if err != nil {
		return nil, nil, outDims, err
	}

	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{
		Name:   "DFR",
		Copies: len(srcNodes),
		New: filters.NewDFR(filters.DFRConfig{
			Study:         study,
			Chunker:       chunker,
			GrayLevels:    cfg.Analysis.GrayLevels,
			ReadAhead:     cfg.ReadAhead,
			ReadAheadGate: cfg.ReadAheadGate,
			FaultPolicy:   cfg.FaultPolicy,
			Skip:          skip,
		}),
		Nodes: srcNodes,
	})
	iicNodes := nodesOrDefault(layout.IICNodes, 1)
	g.AddFilter(filter.FilterSpec{
		Name:   "IIC",
		Copies: len(iicNodes),
		New:    filters.NewIIC(filters.IICConfig{Chunker: chunker}),
		Nodes:  iicNodes,
	})
	g.Connect(filter.ConnSpec{From: "DFR", FromPort: filters.PortOut, To: "IIC", ToPort: filters.PortIn, Policy: filter.Explicit})

	res, err := addTextureAndOutput(g, "IIC", cfg, layout, outDims)
	if err != nil {
		return nil, nil, outDims, err
	}
	return g, res, outDims, nil
}

// BuildMem constructs the graph over an in-memory grid (no RFR/IIC stage;
// a GridSource emits complete chunks).
func BuildMem(grid *volume.Grid, cfg *Config, layout *Layout) (*filter.Graph, *filters.Results, [4]int, error) {
	var outDims [4]int
	if layout == nil {
		layout = &Layout{}
	}
	if err := cfg.Validate(grid.Dims); err != nil {
		return nil, nil, outDims, err
	}
	if grid.G != cfg.Analysis.GrayLevels {
		return nil, nil, outDims, fmt.Errorf("pipeline: grid has %d gray levels, config %d", grid.G, cfg.Analysis.GrayLevels)
	}
	chunker, err := volume.NewChunker(grid.Dims, cfg.ChunkShape, cfg.Analysis.ROI)
	if err != nil {
		return nil, nil, outDims, err
	}
	outDims = chunker.OutputDims()
	skip, err := cfg.resumeSkip(chunker)
	if err != nil {
		return nil, nil, outDims, err
	}

	srcNodes := nodesOrDefault(layout.SourceNodes, 1)
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{
		Name:   "SRC",
		Copies: len(srcNodes),
		New:    filters.NewGridSource(filters.GridSourceConfig{Grid: grid, Chunker: chunker, Skip: skip}),
		Nodes:  srcNodes,
	})
	res, err := addTextureAndOutput(g, "SRC", cfg, layout, outDims)
	if err != nil {
		return nil, nil, outDims, err
	}
	return g, res, outDims, nil
}

// addTextureAndOutput wires the texture-analysis and output filter sets
// behind the chunk producer named src.
func addTextureAndOutput(g *filter.Graph, src string, cfg *Config, layout *Layout, outDims [4]int) (*filters.Results, error) {
	tcfg := filters.TextureConfig{
		Analysis:        cfg.Analysis,
		PacketsPerChunk: cfg.PacketsPerChunk,
		RouteByFeature:  cfg.Output == OutputJPEG,
	}
	var paramProducer string
	switch cfg.Impl {
	case HMPImpl:
		nodes := nodesOrDefault(layout.HMPNodes, 1)
		tcfg.Admission = cfg.admission(len(nodes))
		g.AddFilter(filter.FilterSpec{Name: "HMP", Copies: len(nodes), New: filters.NewHMP(tcfg), Nodes: nodes})
		g.Connect(filter.ConnSpec{From: src, FromPort: filters.PortOut, To: "HMP", ToPort: filters.PortIn, Policy: cfg.Policy})
		paramProducer = "HMP"
	case SplitImpl:
		hccNodes := nodesOrDefault(layout.HCCNodes, 1)
		hpcNodes := nodesOrDefault(layout.HPCNodes, 1)
		// One admission pool across both halves: its limit is the total
		// compute concurrency of the split stage.
		tcfg.Admission = cfg.admission(len(hccNodes) + len(hpcNodes))
		g.AddFilter(filter.FilterSpec{Name: "HCC", Copies: len(hccNodes), New: filters.NewHCC(tcfg), Nodes: hccNodes})
		g.AddFilter(filter.FilterSpec{Name: "HPC", Copies: len(hpcNodes), New: filters.NewHPC(tcfg), Nodes: hpcNodes})
		g.Connect(filter.ConnSpec{From: src, FromPort: filters.PortOut, To: "HCC", ToPort: filters.PortIn, Policy: cfg.Policy})
		g.Connect(filter.ConnSpec{From: "HCC", FromPort: filters.PortOut, To: "HPC", ToPort: filters.PortIn, Policy: cfg.Policy})
		paramProducer = "HPC"
	}

	outNodes := nodesOrDefault(layout.OutputNodes, 1)
	switch cfg.Output {
	case OutputCollect:
		res := filters.NewResults(outDims)
		if cfg.Recovered != nil {
			if err := res.Restore(cfg.Recovered); err != nil {
				return nil, err
			}
		}
		if cfg.Journal != nil {
			// Attached after Restore so recovered portions are not
			// re-journaled.
			res.SetJournal(cfg.Journal)
		}
		g.AddFilter(filter.FilterSpec{Name: "OUT", Copies: len(outNodes), New: filters.NewCollector(res), Nodes: outNodes})
		g.Connect(filter.ConnSpec{From: paramProducer, FromPort: filters.PortOut, To: "OUT", ToPort: filters.PortIn, Policy: filter.RoundRobin})
		return res, nil
	case OutputUSO:
		ucfg := filters.USOConfig{Dir: cfg.OutDir, Journal: cfg.Journal}
		if cfg.Recovered != nil {
			ucfg.Recovered = cfg.Recovered.Portions
		}
		g.AddFilter(filter.FilterSpec{Name: "USO", Copies: len(outNodes), New: filters.NewUSO(ucfg), Nodes: outNodes})
		g.Connect(filter.ConnSpec{From: paramProducer, FromPort: filters.PortOut, To: "USO", ToPort: filters.PortIn, Policy: filter.RoundRobin})
		return nil, nil
	case OutputJPEG:
		g.AddFilter(filter.FilterSpec{Name: "HIC", Copies: len(outNodes), New: filters.NewHIC(filters.HICConfig{OutDims: outDims}), Nodes: outNodes})
		g.Connect(filter.ConnSpec{From: paramProducer, FromPort: filters.PortOut, To: "HIC", ToPort: filters.PortIn, Policy: filter.Explicit})
		jiwNodes := layout.JIWNodes
		if jiwNodes == nil {
			jiwNodes = outNodes
		}
		g.AddFilter(filter.FilterSpec{Name: "JIW", Copies: len(jiwNodes), New: filters.NewJIW(filters.JIWConfig{Dir: cfg.OutDir}), Nodes: jiwNodes})
		g.Connect(filter.ConnSpec{From: "HIC", FromPort: filters.PortOut, To: "JIW", ToPort: filters.PortIn, Policy: filter.RoundRobin})
		return nil, nil
	}
	return nil, fmt.Errorf("pipeline: invalid output mode %d", int(cfg.Output))
}

// Engine selects the execution engine.
type Engine int

const (
	// EngineLocal runs every copy as a goroutine with in-memory streams.
	EngineLocal Engine = iota
	// EngineTCP runs goroutines with real loopback TCP between nodes.
	EngineTCP
	// EngineSim runs on the simulated cluster in virtual time.
	EngineSim
)

// String returns the engine's flag name.
func (e Engine) String() string {
	switch e {
	case EngineLocal:
		return "local"
	case EngineTCP:
		return "tcp"
	case EngineSim:
		return "sim"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine is the inverse of String.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "local":
		return EngineLocal, nil
	case "tcp":
		return EngineTCP, nil
	case "sim":
		return EngineSim, nil
	}
	return 0, fmt.Errorf("pipeline: unknown engine %q", s)
}

// RunOptions tunes an engine run.
type RunOptions struct {
	// QueueBytes bounds each filter copy's input queue in payload bytes
	// (local and TCP engines); 0 selects the run's one byte budget,
	// readahead.BudgetBytes. See filter.Options.QueueBytes.
	QueueBytes    int
	Topology      *cluster.Topology // EngineSim only; defaults to a uniform cluster
	ComputeScale  float64           // EngineSim only
	SimQueueDepth int               // EngineSim only: the modelled queue credits (buffers) per copy, the paper's flow-control parameter
	// DisableMetrics turns off the observability layer for the run;
	// RunStats.Report stays nil.
	DisableMetrics bool
	// WireCodec selects the serialization for buffers crossing nodes on the
	// TCP engine; the zero value keeps the original gob streams.
	WireCodec filter.Codec
	// Failover lets surviving copies of transparently-routed filters take
	// over the un-acked buffers of a crashed copy (local and TCP engines;
	// the simulated cluster models fault-free hardware and ignores it).
	Failover bool
	// Retry enables bounded reconnect-and-retransmit on the TCP engine's
	// node links; nil or MaxAttempts <= 1 keeps single-shot sends.
	Retry *filter.RetryPolicy
	// WrapConn, when non-nil, wraps every outbound TCP node link — the fault
	// injection hook (see internal/fault.FlakyConn). TCP engine only.
	WrapConn func(c net.Conn, fromNode, toNode int) net.Conn
	// StallTimeout arms the filter runtime's stall watchdog (local and TCP
	// engines): if no copy anywhere makes progress for this long the run
	// fails with a filter.StallError naming the wedged copies. 0 disables.
	// The simulated cluster runs in virtual time and ignores it.
	StallTimeout time.Duration
	// AutoTune drives this controller's feedback loop from the engine's
	// live snapshots (local and TCP engines; the simulated cluster runs in
	// virtual time and ignores it). Use the controller already registered
	// with Config.AutoTune at build time; a controller with no registered
	// knobs observes but never tunes. Requires metrics.
	AutoTune *autotune.Controller
	// Monitor, when non-nil, runs alongside the engine for the life of the
	// run with a live metrics probe — the export point for progress
	// reporting (the serve daemon streams job snapshots through it). It is
	// called on its own goroutine and must return when stop closes.
	// Requires metrics; composes with AutoTune.
	Monitor func(stop <-chan struct{}, p filter.Probe)
}

// monitor merges the caller's Monitor hook with the autotune feedback loop
// into the filter runtime's single Monitor slot.
func (o *RunOptions) monitor() func(stop <-chan struct{}, p filter.Probe) {
	ctrl, user := o.AutoTune, o.Monitor
	switch {
	case ctrl == nil && user == nil:
		return nil
	case ctrl == nil:
		return user
	case user == nil:
		return func(stop <-chan struct{}, p filter.Probe) { ctrl.Run(stop, p.Snapshot) }
	}
	return func(stop <-chan struct{}, p filter.Probe) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			user(stop, p)
		}()
		ctrl.Run(stop, p.Snapshot)
		<-done
	}
}

// Run executes a built graph on the selected engine.
func Run(g *filter.Graph, engine Engine, opts *RunOptions) (*filter.RunStats, error) {
	return RunContext(context.Background(), g, engine, opts)
}

// RunContext is Run under a context: cancellation aborts the run promptly on
// every engine and surfaces ctx's error.
func RunContext(ctx context.Context, g *filter.Graph, engine Engine, opts *RunOptions) (*filter.RunStats, error) {
	if opts == nil {
		opts = &RunOptions{}
	}
	switch engine {
	case EngineLocal:
		return filter.RunLocalContext(ctx, g, &filter.Options{
			QueueBytes: opts.QueueBytes, DisableMetrics: opts.DisableMetrics, Failover: opts.Failover,
			StallTimeout: opts.StallTimeout, Monitor: opts.monitor(),
		})
	case EngineTCP:
		return filter.RunTCPContext(ctx, g, &filter.Options{
			QueueBytes: opts.QueueBytes, DisableMetrics: opts.DisableMetrics, WireCodec: opts.WireCodec,
			Failover: opts.Failover, Retry: opts.Retry, WrapConn: opts.WrapConn,
			StallTimeout: opts.StallTimeout, Monitor: opts.monitor(),
		})
	case EngineSim:
		topo := opts.Topology
		if topo == nil {
			topo = cluster.Uniform(g.NumNodes(), 1, cluster.LANLatency, cluster.FastEthernetMBps)
		}
		return cluster.RunContext(ctx, g, topo, &cluster.Options{
			QueueDepth: opts.SimQueueDepth, ComputeScale: opts.ComputeScale, DisableMetrics: opts.DisableMetrics,
		})
	}
	return nil, fmt.Errorf("pipeline: invalid engine %d", int(engine))
}

// AttachBackendStats folds the store's backend I/O and cache counters into
// the run report's backends table. Call it after the run completes; a nil
// report (metrics disabled) or nil store is a no-op. Counters are cumulative
// over the store's lifetime, so use a fresh store per run for per-run
// numbers.
func AttachBackendStats(rep *metrics.RunReport, store *dataset.Store) {
	if rep == nil || store == nil {
		return
	}
	s := store.Stats()
	rep.Backends = append(rep.Backends, metrics.BackendReport{
		Scheme:            s.Scheme,
		URL:               s.URL,
		Opens:             s.Opens,
		Reads:             s.Reads,
		ReadBytes:         s.ReadBytes,
		CacheHits:         s.CacheHits,
		CacheMisses:       s.CacheMisses,
		CacheEvictions:    s.CacheEvictions,
		CacheFetchBytes:   s.CacheFetchBytes,
		BreakerState:      s.BreakerState,
		BreakerTrips:      s.BreakerTrips,
		BreakerProbes:     s.BreakerProbes,
		RetryBudgetSpent:  s.RetryBudgetSpent,
		RetryBudgetDenied: s.RetryBudgetDenied,
		HedgedReads:       s.HedgedReads,
		HedgeWins:         s.HedgeWins,
		StaleReads:        s.StaleReads,
	})
}

// Sequential is the single-workstation reference implementation: read the
// whole dataset, requantize it with the dataset-global range, and run the
// raster scan in one pass. Returns one grid per configured feature.
func Sequential(store *dataset.Store, cfg *Config) (map[features.Feature]*volume.FloatGrid, error) {
	if err := cfg.Validate(store.Meta.Dims); err != nil {
		return nil, err
	}
	v, err := store.ReadVolume()
	if err != nil {
		return nil, err
	}
	grid := volume.RequantizeRange(v, cfg.Analysis.GrayLevels, store.Meta.Min, store.Meta.Max)
	return SequentialGrid(grid, cfg)
}

// SequentialGrid is Sequential for an already-requantized in-memory grid.
func SequentialGrid(grid *volume.Grid, cfg *Config) (map[features.Feature]*volume.FloatGrid, error) {
	acfg := cfg.Analysis
	grids, err := core.AnalyzeGrid(grid, &acfg, nil)
	if err != nil {
		return nil, err
	}
	out := map[features.Feature]*volume.FloatGrid{}
	for i, f := range acfg.Features {
		out[f] = grids[i]
	}
	return out, nil
}

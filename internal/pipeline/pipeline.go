// Package pipeline composes the paper's filters into its two end-to-end
// instantiations — the combined HMP implementation (Fig. 5) and the split
// HCC+HPC implementation (Fig. 4) — over disk-resident or in-memory
// datasets, with configurable placement, copy counts, buffer scheduling
// policy and output mode, and runs them on any of the three engines.
package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/cluster"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/runspec"
	"haralick4d/internal/sem"
	"haralick4d/internal/volume"
)

// Impl selects the texture-filter decomposition (a run-spec value).
type Impl = runspec.Impl

const (
	// HMPImpl performs co-occurrence matrix computation and parameter
	// calculation inside a single filter.
	HMPImpl = runspec.HMP
	// SplitImpl task-distributes the two operations among pipelined HCC and
	// HPC filters.
	SplitImpl = runspec.Split
)

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
	SourceNodes []int // RFR copies (must equal the dataset's storage nodes)
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
	ReadAhead       int    // I/O windows each reader copy keeps in flight ahead of its emit loop; 0 = synchronous (tests, cmd/experiments), ReadAheadAuto = self-sized
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
	// Opened by Prepare from its Checkpoint. OutputCollect and OutputUSO only.
	Journal *checkpoint.Journal
	// Recovered is the verified state loaded from an earlier run's journal;
	// chunks it proves complete are skipped from the readers onward, and the
	// sink is pre-seeded with the recovered portions.
	Recovered *checkpoint.State
	// ReadAheadGate, when set, is the resizable prefetch bound the readers
	// share (one credit per window in flight) instead of a ReadAhead depth
	// of their own — the injection point for an external resource governor
	// (the serve daemon splits one global budget across jobs through these).
	ReadAheadGate *sem.Sem
	// Admission, when set, is the resizable compute-admission semaphore the
	// texture filters share — the governor's counterpart to ReadAheadGate.
	// Nil admits every chunk at once.
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
// depth (readahead.NewAuto): what a run spec's default read-ahead becomes.
const ReadAheadAuto = readahead.Auto

// ConfigFor translates a run spec into the graph builder's configuration
// and placement; it is the one place user input becomes a Config. The
// storage nodes come first, then one IIC copy, the output copy and the
// texture copies, a node each; split co-locates each HCC copy with an HPC
// copy (the paper's best layout). What only an engine run has — kernel
// mode, gates, journal — is the caller's to add.
func ConfigFor(s *runspec.Spec, storageNodes int) (*Config, *Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	r := s.Resolved()
	cfg := &Config{
		Analysis:    r.Analysis(),
		ChunkShape:  [4]int(r.ChunkShape),
		ReadAhead:   int(r.ReadAhead),
		Impl:        r.Impl,
		Policy:      r.Policy.Filter(),
		OutDir:      r.OutDir,
		FaultPolicy: r.FaultPolicy,
	}
	if cfg.ReadAhead == 0 {
		cfg.ReadAhead = ReadAheadAuto
	}
	switch r.Output {
	case runspec.OutputUSO:
		cfg.Output = OutputUSO
	case runspec.OutputJPEG:
		cfg.Output = OutputJPEG
	case runspec.OutputNone:
		cfg.Output, cfg.OutDir = OutputCollect, ""
	}
	next := storageNodes
	take := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = next
			next++
		}
		return ids
	}
	layout := &Layout{IICNodes: take(1), OutputNodes: take(1)}
	if tex := take(r.Texture); r.Impl == SplitImpl {
		layout.HCCNodes, layout.HPCNodes = tex, tex
	} else {
		layout.HMPNodes = tex
	}
	return cfg, layout, nil
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

	res, err := addTextureAndOutput(g, cfg, layout, outDims)
	if err != nil {
		return nil, nil, outDims, err
	}
	return g, res, outDims, nil
}

// addTextureAndOutput wires the texture-analysis and output filter sets
// behind IIC, the chunk producer.
func addTextureAndOutput(g *filter.Graph, cfg *Config, layout *Layout, outDims [4]int) (*filters.Results, error) {
	tcfg := filters.TextureConfig{
		Analysis:        cfg.Analysis,
		PacketsPerChunk: cfg.PacketsPerChunk,
		RouteByFeature:  cfg.Output == OutputJPEG,
		// One admission pool across every texture copy (both halves of the
		// split stage): its limit is the stage's total compute concurrency.
		Admission: cfg.Admission,
	}
	var paramProducer string
	switch cfg.Impl {
	case HMPImpl:
		nodes := nodesOrDefault(layout.HMPNodes, 1)
		g.AddFilter(filter.FilterSpec{Name: "HMP", Copies: len(nodes), New: filters.NewHMP(tcfg), Nodes: nodes})
		g.Connect(filter.ConnSpec{From: "IIC", FromPort: filters.PortOut, To: "HMP", ToPort: filters.PortIn, Policy: cfg.Policy})
		paramProducer = "HMP"
	case SplitImpl:
		hccNodes := nodesOrDefault(layout.HCCNodes, 1)
		hpcNodes := nodesOrDefault(layout.HPCNodes, 1)
		g.AddFilter(filter.FilterSpec{Name: "HCC", Copies: len(hccNodes), New: filters.NewHCC(tcfg), Nodes: hccNodes})
		g.AddFilter(filter.FilterSpec{Name: "HPC", Copies: len(hpcNodes), New: filters.NewHPC(tcfg), Nodes: hpcNodes})
		g.Connect(filter.ConnSpec{From: "IIC", FromPort: filters.PortOut, To: "HCC", ToPort: filters.PortIn, Policy: cfg.Policy})
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

// RunOptions tunes an engine run: the filter runtime's options, plus what
// only the simulated cluster or the progress export needs.
type RunOptions struct {
	filter.Options
	// Topology is the simulated cluster EngineSim runs on; nil is a uniform
	// cluster of speed-1 nodes on FastEthernet.
	Topology *cluster.Topology
	// ComputeScale converts host compute time into virtual time on a
	// speed-1 node under EngineSim (see filter.RunSim); 0 means 1.
	ComputeScale float64
	// Progress, when non-nil, receives a live cumulative progress summary
	// every ProgressInterval (0: DefaultProgressInterval) for the life of
	// the run, on a goroutine of its own — the export point for job-status
	// APIs (the serve daemon streams them per job). It must not block for
	// long and may be called zero times on a short run. It takes the
	// runtime's Monitor slot, and requires metrics.
	Progress         func(metrics.Progress)
	ProgressInterval time.Duration
}

// DefaultProgressInterval is RunOptions.Progress's period when
// ProgressInterval is zero.
const DefaultProgressInterval = 500 * time.Millisecond

// monitor is the Progress sampler in the filter runtime's Monitor slot, or
// nil when no one asked for progress.
func (o *RunOptions) monitor() func(stop <-chan struct{}, p filter.Probe) {
	fn, every := o.Progress, cmp.Or(o.ProgressInterval, DefaultProgressInterval)
	if fn == nil {
		return nil
	}
	return func(stop <-chan struct{}, p filter.Probe) {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn(p.Report().Progress())
			}
		}
	}
}

// Run executes a built graph on the selected engine and returns its run
// report.
func Run(g *filter.Graph, engine Engine, opts *RunOptions) (*metrics.RunReport, error) {
	return RunContext(context.Background(), g, engine, opts)
}

// RunContext is Run under a context: cancellation aborts the run promptly on
// every engine and surfaces ctx's error.
func RunContext(ctx context.Context, g *filter.Graph, engine Engine, opts *RunOptions) (*metrics.RunReport, error) {
	if opts == nil {
		opts = &RunOptions{}
	}
	fo := opts.Options
	if m := opts.monitor(); m != nil {
		fo.Monitor = m
	}
	switch engine {
	case EngineLocal:
		return filter.RunLocalContext(ctx, g, &fo)
	case EngineTCP:
		return filter.RunTCPContext(ctx, g, &fo)
	case EngineSim:
		topo := opts.Topology
		if topo == nil {
			topo = cluster.Uniform(g.NumNodes(), 1, cluster.LANLatency, cluster.FastEthernetMBps)
		}
		return filter.RunSim(ctx, g, topo, opts.ComputeScale, &fo)
	}
	return nil, fmt.Errorf("pipeline: invalid engine %d", int(engine))
}

// attachBackendStats folds the store's backend I/O and cache counters into
// the run report's backends table. Run calls it after the engine run; a nil
// store is a no-op. Counters are cumulative
// over the store's lifetime, so use a fresh store per run for per-run
// numbers.
func attachBackendStats(rep *metrics.RunReport, store *dataset.Store) {
	if store == nil {
		return
	}
	// The report row is the store's counter set under the report's JSON
	// tags.
	rep.Backends = append(rep.Backends, metrics.BackendReport(store.Stats()))
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

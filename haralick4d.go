// Package haralick4d implements parallel 4-dimensional Haralick texture
// analysis for disk-resident image datasets, reproducing Woods, Clymer,
// Saltz and Kurc (SC 2004).
//
// The analysis rasters a region-of-interest (ROI) window over a 4D (x, y,
// z, t) image dataset; for each ROI it computes a gray-level co-occurrence
// matrix and derives up to fourteen Haralick textural parameters, producing
// one 4D parameter image per feature. Datasets too large for one machine
// are declustered across storage nodes and processed by a filter-stream
// pipeline (a DataCutter-style middleware, see internal/filter) with
// configurable task- and data-parallelism.
//
// This package is the façade over the building blocks in internal/: use
// Analyze for in-memory volumes, AnalyzeDataset for disk-resident datasets
// created with WriteDataset, and GeneratePhantom for synthetic DCE-MRI test
// studies. Lower-level control (filter placement, execution engines, the
// simulated cluster) is available through the internal packages and the
// cmd/ tools.
package haralick4d

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"haralick4d/internal/autotune"
	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// Feature identifies one of Haralick's fourteen textural parameters.
type Feature = features.Feature

// The fourteen Haralick parameters (f1–f14).
const (
	ASM                 = features.ASM
	Contrast            = features.Contrast
	Correlation         = features.Correlation
	Variance            = features.Variance
	IDM                 = features.IDM
	SumAverage          = features.SumAverage
	SumVariance         = features.SumVariance
	SumEntropy          = features.SumEntropy
	Entropy             = features.Entropy
	DifferenceVariance  = features.DifferenceVariance
	DifferenceEntropy   = features.DifferenceEntropy
	InfoCorrelation1    = features.InfoCorrelation1
	InfoCorrelation2    = features.InfoCorrelation2
	MaxCorrelationCoeff = features.MaxCorrelationCoeff
)

// AllFeatures returns all fourteen parameters in f1–f14 order.
func AllFeatures() []Feature { return features.All() }

// PaperFeatures returns the four parameters used throughout the paper's
// evaluation: angular second moment, correlation, sum of squares (variance)
// and inverse difference moment.
func PaperFeatures() []Feature { return features.PaperSet() }

// ParseFeature returns the feature with the given canonical name (e.g.
// "asm", "contrast", "max-correlation-coeff").
func ParseFeature(name string) (Feature, error) { return features.Parse(name) }

// Representation selects the co-occurrence matrix storage scheme.
type Representation = core.Representation

// The three storage schemes studied by the paper.
const (
	// FullMatrix is the dense G×G array with the zero-skip parameter
	// calculation (the paper's optimized full representation).
	FullMatrix = core.FullMatrix
	// FullMatrixNoSkip disables the zero test (ablation baseline).
	FullMatrixNoSkip = core.FullMatrixNoSkip
	// SparseMatrix stores only non-zero entries and computes parameters
	// directly from the sparse form.
	SparseMatrix = core.SparseMatrix
)

// KernelMode selects the GLCM accumulation kernel of the parallel
// intra-chunk scan (see Options.Kernel).
type KernelMode = core.KernelMode

// The three kernel modes.
const (
	// KernelAuto (default) uses the cache-blocked, direction-batched kernel
	// whenever the scan geometry supports it, falling back to the legacy
	// sliding-window kernels otherwise.
	KernelAuto = core.KernelAuto
	// KernelBlocked requests the blocked kernel explicitly (unsupported
	// geometries still fall back per worker).
	KernelBlocked = core.KernelBlocked
	// KernelLegacy forces the per-direction legacy kernels everywhere.
	KernelLegacy = core.KernelLegacy
)

// ReadAheadAuto as Options.ReadAhead lets every dataset reader size its own
// read-ahead depth; the CLI's default.
const ReadAheadAuto = pipeline.ReadAheadAuto

// ParseKernelMode returns the kernel mode with the given canonical name
// ("auto", "blocked", "legacy").
func ParseKernelMode(s string) (KernelMode, error) { return core.ParseKernelMode(s) }

// Volume is a raw 4D image dataset of 2-byte voxels with dimensions
// (X, Y, Z, T), x varying fastest.
type Volume = volume.Volume

// FloatGrid is a 4D grid of float64 values — one per ROI position — the
// output type of the analysis.
type FloatGrid = volume.FloatGrid

// NewVolume allocates a zeroed volume with the given dimensions.
func NewVolume(dims [4]int) *Volume { return volume.NewVolume(dims) }

// Options configures an analysis. The zero value is the paper's
// configuration: 16×16×3×3 ROI, 32 gray levels, distance-1 displacements in
// all 40 unique 4D directions, the paper's four parameters, and the
// optimized full-matrix representation.
type Options struct {
	// ROI is the region-of-interest window shape (x, y, z, t).
	// Zero value: 16×16×3×3, the paper's window.
	ROI [4]int
	// GrayLevels is the requantization level count G (co-occurrence
	// matrices are G×G). Zero value: 32; valid range [2, 256].
	GrayLevels int
	// NDim selects the direction-set dimensionality (1–4).
	// Zero value: 4 (all 40 unique 4D directions).
	NDim int
	// Distance is the voxel-pair displacement magnitude. Zero value: 1.
	Distance int
	// Features are the Haralick parameters to compute. Zero value (nil):
	// the paper's four (ASM, correlation, variance, IDM).
	Features []Feature
	// Representation selects the matrix storage scheme. Zero value:
	// FullMatrix, the paper's optimized full representation.
	Representation Representation
	// Parallelism is the number of parallel texture filter copies; 0 uses
	// all CPUs, 1 forces the sequential reference path.
	Parallelism int
	// KernelWorkers bounds the intra-chunk parallelism inside each texture
	// filter: ROI raster rows are striped across this many workers, whose
	// per-row kernel reuses overlapping-window work (sliding-window GLCM
	// updates). 0 uses all CPUs, 1 forces the sequential reference kernel.
	// Outputs are bit-identical at every setting.
	KernelWorkers int
	// Kernel selects the GLCM accumulation kernel those workers run. The
	// zero value, KernelAuto, enables the cache-blocked, direction-batched
	// kernel by default; KernelLegacy restores the per-direction kernels.
	// The sequential reference path (KernelWorkers 1) is always legacy, and
	// outputs are bit-identical across modes.
	Kernel KernelMode
	// KernelBlock bounds the x extent of the blocked kernel's accumulation
	// runs (an L1 tile width in voxels) for ROIs whose rows outgrow the
	// cache. 0 — the default — leaves rows untiled.
	KernelBlock int
	// DisableMetrics turns off the run's observability layer; Result.Report
	// stays nil. Metrics are on by default and cost a few atomic operations
	// per stream buffer.
	DisableMetrics bool
	// ReadAhead is the number of I/O windows each dataset reader keeps in
	// flight (fetch + decode) ahead of the pipeline (AnalyzeDataset only).
	// 0 — the default — reads synchronously, ReadAheadAuto self-sizes; any
	// depth produces bit-identical outputs.
	ReadAhead int
	// FaultPolicy selects how AnalyzeDataset handles degraded slices —
	// checksum mismatches, truncated or missing files. FailFast (the zero
	// value) aborts with an error matching ErrDegradedData; SkipDegraded
	// completes the healthy remainder of the dataset, leaves the affected
	// output voxels zero and reports them in Result.Degraded. SkipDegraded
	// also enables copy failover in the runtime so a crashed filter copy
	// degrades the run instead of killing it.
	FaultPolicy FaultPolicy
	// Retry bounds reconnect-and-retransmit on engines with real transport
	// faults. The local engine AnalyzeDataset uses has none, so this is
	// carried for callers driving the TCP engine through the pipeline
	// package; nil keeps single-shot sends.
	Retry *RetryPolicy
	// Checkpoint is the path of a durable progress journal (AnalyzeDataset
	// only): every assembled output portion is recorded there as it lands,
	// so a crashed or killed run can be continued with Resume instead of
	// restarted. Empty disables checkpointing.
	Checkpoint string
	// CheckpointInterval is the journal's fsync cadence: records are written
	// through on every append but only forced to stable storage this often
	// (plus once on Close). 0 selects the 1s default; larger values trade
	// crash-window size for fewer fsyncs. Must not be negative.
	CheckpointInterval time.Duration
	// Resume reopens the Checkpoint journal from an earlier run of the same
	// configuration: verified recovered portions are trusted, fully-durable
	// chunks are never re-read or recomputed, and the final Result is
	// bit-identical to an uninterrupted run. Requires Checkpoint.
	Resume bool
	// StallTimeout arms a watchdog over the run: if no filter copy anywhere
	// makes progress for this long, the run fails with an error matching
	// ErrStalled that names the wedged copies — instead of hanging forever
	// on, say, a dead NFS mount. It is a global no-progress deadline, not a
	// per-operation one; it must comfortably exceed the longest single
	// read/compute the run can legitimately perform. 0 disables.
	StallTimeout time.Duration
	// CacheBlocks layers a fixed-size block cache between the dataset
	// backend and the readers (AnalyzeDataset only): a shared LRU budget of
	// this many blocks. 0 — the default — disables caching; negative is
	// invalid. Most useful with remote (http) dataset URLs, where a hit
	// saves a network round trip.
	CacheBlocks int
	// CacheBlockSize is the cache's block granularity in bytes; 0 selects
	// the 128 KiB default. Requires CacheBlocks > 0.
	CacheBlockSize int
	// Resilience arms failure-control on the dataset backend (AnalyzeDataset
	// only): a circuit breaker fast-failing calls while the backend is sick,
	// a shared retry budget capping total retry traffic, and hedged range
	// reads for tail latency. Nil — the default — keeps the plain retry
	// behavior. Most useful with remote (http) dataset URLs.
	Resilience *ResiliencePolicy
	// ServeStale, while the backend breaker is open, converts unavailable
	// slice reads into degraded slices (still served from cache when a
	// block-cache holds them) instead of failing the run. Requires
	// FaultPolicy SkipDegraded, which is what makes degraded slices
	// survivable. AnalyzeDataset only.
	ServeStale bool
	// Deadline bounds the whole analysis in wall-clock time (AnalyzeDataset
	// only): it is propagated as a context deadline into every backend read,
	// so an overrunning run fails with context.DeadlineExceeded instead of
	// hanging. 0 disables.
	Deadline time.Duration
	// AutoTune runs the online feedback controller during the pipeline run:
	// texture compute admission (with more than one texture copy) is resized
	// live from periodic progress snapshots (hill climbing with hysteresis),
	// and the decisions appear in Result.Report.Tuning. Tuning changes
	// scheduling only — outputs are bit-identical to an untuned run.
	// Requires metrics; ignored by the sequential reference path
	// (Parallelism 1 in Analyze), which has nothing to actuate.
	AutoTune bool
	// AutoTuneInterval is the controller's sampling period; 0 selects the
	// 100 ms default. Requires AutoTune.
	AutoTuneInterval time.Duration
	// AutoTuneSeed fixes the controller's tie-break RNG so a given metric
	// trace reproduces the same decisions; 0 selects seed 1. Requires
	// AutoTune.
	AutoTuneSeed int64
	// Progress, when non-nil, is called with a live cumulative progress
	// summary every ProgressInterval while a pipeline run is in flight —
	// the export point for job-status APIs (the serve daemon streams these
	// per job). Calls happen on a dedicated goroutine; the callback must
	// not block for long and must tolerate being called zero times on very
	// short runs. Requires metrics; ignored by the sequential reference
	// path, which has no live counters to sample.
	Progress func(Progress)
	// ProgressInterval is the sampling period; 0 selects the 500 ms
	// default. Requires Progress.
	ProgressInterval time.Duration
}

// Progress is the compact cumulative progress summary delivered to
// Options.Progress (see internal/metrics.Progress for field semantics).
type Progress = metrics.Progress

// DefaultProgressInterval is the Options.Progress sampling period when
// ProgressInterval is zero.
const DefaultProgressInterval = 500 * time.Millisecond

// Validate checks the options and reports the first problem — the same
// error an Analyze call would return before doing any work. It does not
// modify o; zero-valued fields are valid and select the documented
// defaults.
func (o *Options) Validate() error {
	_, err := o.coreConfig()
	if err != nil {
		return err
	}
	if err := o.validateRestart(); err != nil {
		return err
	}
	if err := o.validateBackend(); err != nil {
		return err
	}
	if err := o.validateAutoTune(); err != nil {
		return err
	}
	return o.validateProgress()
}

// validateProgress checks the live-progress option subset.
func (o *Options) validateProgress() error {
	if o == nil {
		return nil
	}
	if o.ProgressInterval < 0 {
		return fmt.Errorf("haralick4d: ProgressInterval must not be negative")
	}
	if o.Progress == nil {
		if o.ProgressInterval > 0 {
			return fmt.Errorf("haralick4d: ProgressInterval set without a Progress callback")
		}
		return nil
	}
	if o.DisableMetrics {
		return fmt.Errorf("haralick4d: Progress needs the metrics it samples (unset DisableMetrics)")
	}
	return nil
}

// progressMonitor adapts the Progress callback into the filter runtime's
// Monitor hook: a ticker loop sampling the live probe until the run ends.
func (o *Options) progressMonitor() func(stop <-chan struct{}, p filter.Probe) {
	if o == nil || o.Progress == nil {
		return nil
	}
	fn, interval := o.Progress, o.ProgressInterval
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return func(stop <-chan struct{}, p filter.Probe) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn(p.Snapshot().Progress())
			}
		}
	}
}

// validateAutoTune checks the online-tuning option subset.
func (o *Options) validateAutoTune() error {
	if o == nil {
		return nil
	}
	if o.AutoTuneInterval < 0 {
		return fmt.Errorf("haralick4d: AutoTuneInterval must not be negative")
	}
	if !o.AutoTune {
		if o.AutoTuneInterval > 0 {
			return fmt.Errorf("haralick4d: AutoTuneInterval set without AutoTune")
		}
		if o.AutoTuneSeed != 0 {
			return fmt.Errorf("haralick4d: AutoTuneSeed set without AutoTune")
		}
		return nil
	}
	if o.DisableMetrics {
		return fmt.Errorf("haralick4d: AutoTune needs the metrics the controller feeds on (unset DisableMetrics)")
	}
	return nil
}

// controller builds the run's autotune controller, or nil when tuning is
// off. cacheStats, when non-nil, feeds the block-cache hit/miss counters
// into each snapshot the controller sees.
func (o *Options) controller(cacheStats func() (hits, misses int64)) *autotune.Controller {
	if o == nil || !o.AutoTune {
		return nil
	}
	return autotune.New(autotune.Config{
		Seed:       o.AutoTuneSeed,
		Interval:   o.AutoTuneInterval,
		CacheStats: cacheStats,
	})
}

// validateBackend checks the dataset-backend option subset.
func (o *Options) validateBackend() error {
	if o == nil {
		return nil
	}
	if o.CacheBlocks < 0 {
		return fmt.Errorf("haralick4d: CacheBlocks must not be negative")
	}
	if o.CacheBlockSize < 0 {
		return fmt.Errorf("haralick4d: CacheBlockSize must not be negative")
	}
	if o.CacheBlockSize > 0 && o.CacheBlocks == 0 {
		return fmt.Errorf("haralick4d: CacheBlockSize set without a CacheBlocks budget")
	}
	return nil
}

// validateResilience checks the resilience option subset.
func (o *Options) validateResilience() error {
	if o == nil {
		return nil
	}
	if o.Deadline < 0 {
		return fmt.Errorf("haralick4d: Deadline must not be negative")
	}
	if o.ServeStale && o.FaultPolicy != SkipDegraded {
		return fmt.Errorf("haralick4d: ServeStale requires FaultPolicy SkipDegraded (stale reads surface as degraded slices)")
	}
	return nil
}

// validateRestart checks the checkpoint/watchdog option subset.
func (o *Options) validateRestart() error {
	if o == nil {
		return nil
	}
	if o.CheckpointInterval < 0 {
		return fmt.Errorf("haralick4d: CheckpointInterval must not be negative")
	}
	if o.CheckpointInterval > 0 && o.Checkpoint == "" {
		return fmt.Errorf("haralick4d: CheckpointInterval set without a Checkpoint path")
	}
	if o.Resume && o.Checkpoint == "" {
		return fmt.Errorf("haralick4d: Resume requires a Checkpoint path")
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("haralick4d: StallTimeout must not be negative")
	}
	return nil
}

func (o *Options) coreConfig() (core.Config, error) {
	var cfg core.Config
	if o != nil {
		cfg = core.Config{
			ROI:            o.ROI,
			GrayLevels:     o.GrayLevels,
			NDim:           o.NDim,
			Distance:       o.Distance,
			Features:       o.Features,
			Representation: o.Representation,
			Workers:        o.KernelWorkers,
			Kernel:         o.Kernel,
			KernelBlock:    o.KernelBlock,
		}
	}
	err := cfg.Validate()
	return cfg, err
}

func (o *Options) workers() int {
	if o == nil || o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// FaultPolicy selects how dataset-level faults are handled (see
// Options.FaultPolicy).
type FaultPolicy = fault.Policy

// The two fault policies.
const (
	// FailFast aborts the analysis on the first degraded slice (default).
	FailFast = fault.FailFast
	// SkipDegraded completes the healthy remainder and reports the damage.
	SkipDegraded = fault.SkipDegraded
)

// RetryPolicy bounds transport retries (see internal/filter.RetryPolicy).
type RetryPolicy = filter.RetryPolicy

// ResiliencePolicy configures the failure-control primitives — circuit
// breaker, shared retry budget, hedged reads (see
// internal/resilience.Policy). Parse flag-style specs with
// resilience.ParseBreaker / resilience.ParseBudget.
type ResiliencePolicy = resilience.Policy

// Typed failures an analysis can return; match with errors.Is.
var (
	// ErrDegradedData marks per-slice data failures: checksum mismatch,
	// truncation, missing file.
	ErrDegradedData = dataset.ErrDegradedData
	// ErrBackendUnavailable marks transport- or storage-layer failures of a
	// dataset backend (an unreachable HTTP server, exhausted retries). It is
	// distinct from ErrDegradedData: it says nothing about any one slice, so
	// SkipDegraded never skips past it — the run aborts.
	ErrBackendUnavailable = dataset.ErrBackendUnavailable
	// ErrCopyFailed marks a filter-copy crash the runtime could not absorb.
	ErrCopyFailed = filter.ErrCopyFailed
	// ErrAllCopiesDead marks the terminal failover state: every copy of a
	// filter has crashed.
	ErrAllCopiesDead = filter.ErrAllCopiesDead
	// ErrStalled marks a run killed by the Options.StallTimeout watchdog;
	// the full error names the copies that stopped making progress.
	ErrStalled = filter.ErrStalled
	// ErrCheckpointMismatch marks a Resume against a journal written by a
	// run with a different configuration.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
	// ErrCheckpointCorrupt marks a journal whose checksummed body holds
	// semantically invalid records — damage a torn tail cannot explain.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
)

// RestartSummary reports what a resumed analysis recovered from its journal
// (see Result.Restart).
type RestartSummary = pipeline.RestartSummary

// DegradedSummary reports what a SkipDegraded analysis had to drop.
type DegradedSummary struct {
	// Slices are the global slice ids (t·Z + z) that failed to read, sorted.
	Slices []int
	// Chunks is the number of texture chunks poisoned by those slices.
	Chunks int
	// ROIs are the [Lo, Hi) output boxes left zero, one per degraded chunk
	// in chunk order.
	ROIs [][2][4]int
	// Voxels is the total output voxel count left zero per feature.
	Voxels int
}

// RunReport is the structured observability report of one analysis run:
// per-filter busy/blocked/stalled times and span decompositions (read,
// assemble, compute, emit, write), per-stream traffic, network activity
// under the TCP engine, dataset-backend I/O and cache counters, and a
// pipeline-wide critical-path summary. It serializes to JSON via
// encoding/json or its JSON method.
type RunReport = metrics.RunReport

// Result holds the assembled parameter images of one analysis.
type Result struct {
	// Grids maps each requested feature to its 4D parameter image. The
	// grid dimensions are the dataset dimensions minus ROI−1 per axis (one
	// value per fully-contained ROI).
	Grids map[Feature]*FloatGrid
	// OutputDims are the dimensions of every grid.
	OutputDims [4]int
	// Report is the run's observability report: nil only when
	// Options.DisableMetrics is set. Sequential runs (Parallelism 1)
	// report a single SEQ pseudo-filter with the whole scan as one
	// compute span.
	Report *RunReport
	// Degraded summarizes data a SkipDegraded run skipped; nil when the run
	// was clean (and always nil under FailFast, which errors instead).
	Degraded *DegradedSummary
	// Restart reports what a Resume run recovered from its checkpoint
	// journal; nil unless Options.Resume was set.
	Restart *RestartSummary
}

// Analyze runs 4D Haralick texture analysis over an in-memory volume: the
// volume is requantized to the configured gray levels over its own
// intensity range and raster-scanned with the configured ROI. With
// Parallelism > 1 the work is chunked and spread over a local filter
// pipeline; outputs are identical to the sequential path.
func Analyze(v *Volume, opts *Options) (*Result, error) {
	return AnalyzeContext(context.Background(), v, opts)
}

// AnalyzeContext is Analyze under a context: cancelling ctx makes the
// pipeline engines stop promptly and return ctx's error. The sequential
// path (Parallelism 1) checks the context only between setup steps — a
// running kernel scan is not interrupted.
func AnalyzeContext(ctx context.Context, v *Volume, opts *Options) (*Result, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	if err := opts.validateRestart(); err != nil {
		return nil, err
	}
	if err := opts.validateAutoTune(); err != nil {
		return nil, err
	}
	if err := opts.validateProgress(); err != nil {
		return nil, err
	}
	if opts != nil && opts.Checkpoint != "" {
		// The in-memory path holds no disk-resident inputs to re-read on a
		// later life, so a journal could never be honoured.
		return nil, fmt.Errorf("haralick4d: checkpointing requires a disk-resident dataset (AnalyzeDataset)")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	grid := volume.Requantize(v, cfg.GrayLevels)
	return analyzeGrid(ctx, grid, cfg, opts)
}

// sequentialReport wraps the reference path's timing in the report schema:
// one SEQ pseudo-filter whose single copy was busy for the whole scan.
func sequentialReport(elapsed time.Duration) *RunReport {
	rep := &metrics.RunReport{
		Engine:    "direct",
		ElapsedNS: int64(elapsed),
		Filters: []metrics.FilterReport{{
			Name: "SEQ",
			Copies: []metrics.CopyReport{{
				BusyNS: int64(elapsed),
				Spans: map[string]metrics.SpanStat{
					metrics.SpanCompute: {Count: 1, TotalNS: int64(elapsed), MaxNS: int64(elapsed)},
				},
			}},
		}},
	}
	rep.Finalize()
	return rep
}

func analyzeGrid(ctx context.Context, grid *volume.Grid, cfg core.Config, opts *Options) (*Result, error) {
	outDims, err := volume.OutputDims(grid.Dims, cfg.ROI)
	if err != nil {
		return nil, err
	}
	res := &Result{Grids: map[Feature]*FloatGrid{}, OutputDims: outDims}
	metricsOn := opts == nil || !opts.DisableMetrics
	if opts.workers() <= 1 {
		start := time.Now()
		grids, err := core.AnalyzeGrid(grid, &cfg, nil)
		if err != nil {
			return nil, err
		}
		for i, f := range cfg.Features {
			res.Grids[f] = grids[i]
		}
		if metricsOn {
			res.Report = sequentialReport(time.Since(start))
		}
		return res, nil
	}
	ctrl := opts.controller(nil)
	pcfg := &pipeline.Config{
		Analysis: cfg,
		Impl:     pipeline.HMPImpl,
		Policy:   filter.DemandDriven,
		Output:   pipeline.OutputCollect,
		AutoTune: ctrl,
	}
	layout := &pipeline.Layout{HMPNodes: make([]int, opts.workers())}
	g, sink, _, err := pipeline.BuildMem(grid, pcfg, layout)
	if err != nil {
		return nil, err
	}
	ropts := &pipeline.RunOptions{DisableMetrics: !metricsOn, AutoTune: ctrl, Monitor: opts.progressMonitor()}
	if opts != nil {
		ropts.StallTimeout = opts.StallTimeout
	}
	rs, err := pipeline.RunContext(ctx, g, pipeline.EngineLocal, ropts)
	if err != nil {
		return nil, err
	}
	if err := sink.Complete(cfg.Features); err != nil {
		return nil, err
	}
	for _, f := range cfg.Features {
		res.Grids[f] = sink.Grid(f)
	}
	res.Report = rs.Report
	ctrl.Attach(res.Report)
	return res, nil
}

// WriteDataset declusters a volume across storageNodes node directories
// under dir in the paper's disk-resident layout (§4.2): one raw file per 2D
// slice, slices dealt round-robin, an index file per node and a JSON
// header.
func WriteDataset(dir string, v *Volume, storageNodes int) error {
	_, err := dataset.Write(dir, v, storageNodes)
	return err
}

// AnalyzeDataset runs the full parallel pipeline over a disk-resident
// dataset created by WriteDataset: RFR readers (one per storage node) feed
// an InputImageConstructor, which distributes overlapping 4D chunks to
// parallel texture filters; results are assembled in memory.
//
// url names the dataset: a plain directory path (or file:// URL) for local
// storage, mem://name for a backend registered with dataset.RegisterMem, or
// http(s)://host/prefix for a remote server answering range requests over
// the same layout.
func AnalyzeDataset(url string, opts *Options) (*Result, error) {
	return AnalyzeDatasetContext(context.Background(), url, opts)
}

// AnalyzeDatasetContext is AnalyzeDataset under a context: cancelling ctx
// makes the pipeline engines stop promptly and return ctx's error.
func AnalyzeDatasetContext(ctx context.Context, url string, opts *Options) (*Result, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	if err := opts.validateRestart(); err != nil {
		return nil, err
	}
	if err := opts.validateBackend(); err != nil {
		return nil, err
	}
	if err := opts.validateAutoTune(); err != nil {
		return nil, err
	}
	if err := opts.validateProgress(); err != nil {
		return nil, err
	}
	if err := opts.validateResilience(); err != nil {
		return nil, err
	}
	uopts := &dataset.URLOptions{}
	if opts != nil {
		uopts.CacheBlocks = opts.CacheBlocks
		uopts.CacheBlockSize = opts.CacheBlockSize
		uopts.ResiliencePolicy = opts.Resilience
		uopts.ServeStale = opts.ServeStale
		if opts.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
			defer cancel()
		}
	}
	st, err := dataset.OpenURL(ctx, url, uopts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ctrl := opts.controller(func() (hits, misses int64) {
		s := st.Stats()
		return s.CacheHits, s.CacheMisses
	})
	pcfg := &pipeline.Config{
		Analysis: cfg,
		Impl:     pipeline.HMPImpl,
		Policy:   filter.DemandDriven,
		Output:   pipeline.OutputCollect,
		AutoTune: ctrl,
	}
	if opts != nil {
		pcfg.ReadAhead = opts.ReadAhead
		pcfg.FaultPolicy = opts.FaultPolicy
	}
	var jour *checkpoint.Journal
	var restart *pipeline.RestartSummary
	if opts != nil && opts.Checkpoint != "" {
		jour, restart, err = pipeline.PrepareCheckpoint(st.Meta.Dims, pcfg, opts.Checkpoint, opts.Resume, opts.CheckpointInterval)
		if err != nil {
			return nil, err
		}
	}
	layout := &pipeline.Layout{HMPNodes: make([]int, opts.workers())}
	g, sink, outDims, err := pipeline.Build(st, pcfg, layout)
	if err != nil {
		if jour != nil {
			jour.Close()
		}
		return nil, err
	}
	ropts := &pipeline.RunOptions{DisableMetrics: opts != nil && opts.DisableMetrics, AutoTune: ctrl, Monitor: opts.progressMonitor()}
	if opts != nil {
		// SkipDegraded asks for a run that survives faults, so crashed
		// copies fail over to survivors instead of aborting.
		ropts.Failover = opts.FaultPolicy == SkipDegraded
		ropts.Retry = opts.Retry
		ropts.StallTimeout = opts.StallTimeout
	}
	rs, err := pipeline.RunContext(ctx, g, pipeline.EngineLocal, ropts)
	if err != nil {
		if jour != nil {
			// Best-effort final sync: the journal is the artifact the next
			// life resumes from, so keep whatever landed before the failure.
			jour.Close()
		}
		return nil, err
	}
	if jour != nil {
		// Close errors matter on the success path: a journal that could not
		// be made durable must not be reported as a completed checkpoint.
		if err := jour.Close(); err != nil {
			return nil, err
		}
	}
	if err := sink.Complete(cfg.Features); err != nil {
		return nil, err
	}
	res := &Result{Grids: map[Feature]*FloatGrid{}, OutputDims: outDims, Report: rs.Report}
	ctrl.Attach(res.Report)
	pipeline.AttachBackendStats(res.Report, st)
	if opts != nil && opts.Resume {
		res.Restart = restart
	}
	for _, f := range cfg.Features {
		res.Grids[f] = sink.Grid(f)
	}
	if slices, rois, voxels := sink.Degraded(); voxels > 0 {
		sum := &DegradedSummary{Slices: slices, Chunks: len(rois), Voxels: voxels}
		sum.ROIs = make([][2][4]int, len(rois))
		for i, b := range rois {
			sum.ROIs[i] = [2][4]int{b.Lo, b.Hi}
		}
		res.Degraded = sum
	}
	return res, nil
}

// PhantomConfig parameterizes a synthetic DCE-MRI study (see
// internal/synthetic): smooth anatomy, tumors with gamma-variate contrast
// uptake and washout, vessels and acquisition noise. Deterministic per
// seed.
type PhantomConfig struct {
	Dims       [4]int
	Seed       int64
	NumTumors  int
	NumVessels int
	NoiseSigma float64
}

// GeneratePhantom builds a synthetic DCE-MRI study.
func GeneratePhantom(cfg PhantomConfig) *Volume {
	return synthetic.Generate(synthetic.Config{
		Dims:       cfg.Dims,
		Seed:       cfg.Seed,
		NumTumors:  cfg.NumTumors,
		NumVessels: cfg.NumVessels,
		NoiseSigma: cfg.NoiseSigma,
	})
}

// Version is the library version.
const Version = "1.0.0"

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
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
	"haralick4d/internal/runspec"
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

// Volume is a raw 4D image dataset of 2-byte voxels with dimensions
// (X, Y, Z, T), x varying fastest.
type Volume = volume.Volume

// FloatGrid is a 4D grid of float64 values — one per ROI position — the
// output type of the analysis.
type FloatGrid = volume.FloatGrid

// NewVolume allocates a zeroed volume with the given dimensions.
func NewVolume(dims [4]int) *Volume { return volume.NewVolume(dims) }

// Spec is the run description the library shares with the haralick4d CLI
// (its flags) and the analysis daemon (its job specs): the same fields,
// defaults and validation on every surface. The zero value of every field
// is its default.
type Spec = runspec.Spec

// Spec values the library's callers name most; every Spec enum also reads
// its text form (UnmarshalText), as the CLI flags do.
const (
	// Split runs the split HCC+HPC texture implementation (Spec.Impl).
	Split = runspec.Split
	// OutputJPEG writes stitched JPEG slice series to Spec.OutDir instead
	// of returning grids (Spec.Output).
	OutputJPEG = runspec.OutputJPEG
)

// Duration is a Spec duration (StallTimeout): a time.Duration whose text
// and JSON form is Go's duration syntax.
type Duration = runspec.Duration

// Millis is the Spec's Deadline: a time.Duration whose JSON form is a
// number of milliseconds (deadline_ms).
type Millis = runspec.Millis

// Options configures an analysis. The zero value is the default run: the
// paper's 16×16×3×3 ROI, 32 gray levels, distance-1 displacements in all
// 40 unique 4D directions, the paper's four parameters and the optimized
// full-matrix representation, on four texture copies with self-sized
// kernel workers and read-ahead.
type Options struct {
	// Spec describes the run (see Spec). Texture is the number of texture
	// filter copies on both entry points. KernelWorkers 1 runs the
	// sequential reference kernel; outputs are bit-identical at every
	// setting. Deadline bounds both entry points; ServeStale acts on
	// AnalyzeDataset's backend only.
	// Output is zero or OutputNone for the grids in Result, or OutputJPEG
	// with an OutDir for stitched JPEG slice series written there instead.
	// Dataset belongs to the CLI and the daemon: the library reads
	// AnalyzeDataset's url, so it must stay empty.
	Spec
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
	// Resilience arms failure-control on the dataset backend (AnalyzeDataset
	// only): the retry schedule, a circuit breaker fast-failing calls while
	// the backend is sick, a shared retry budget capping total retry
	// traffic, and hedged range reads for tail latency. Nil — the default —
	// keeps the default retry schedule. Most useful with remote (http)
	// dataset URLs.
	Resilience *ResiliencePolicy
	// Progress, when non-nil, is called with a live cumulative progress
	// summary every ProgressInterval while a pipeline run is in flight —
	// the export point for job-status APIs (the serve daemon streams these
	// per job). Calls happen on a dedicated goroutine; the callback must
	// not block for long and must tolerate being called zero times on very
	// short runs.
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
const DefaultProgressInterval = pipeline.DefaultProgressInterval

// Validate checks the options and reports the first problem — the same
// error an Analyze call would return before doing any work: the Spec's own
// Validate (the one the CLI and the daemon run), then the library's hooks.
// It does not modify o; zero-valued fields are valid and select the
// documented defaults.
func (o *Options) Validate() error {
	if o == nil {
		o = &Options{}
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	switch {
	case o.Dataset != "":
		return fmt.Errorf("haralick4d: Dataset is the CLI's and the daemon's: the library reads AnalyzeDataset's url")
	case (o.Output == OutputJPEG) != (o.OutDir != ""):
		return fmt.Errorf("haralick4d: OutputJPEG and OutDir go together: the other outputs return grids in memory")
	case o.CheckpointInterval < 0:
		return fmt.Errorf("haralick4d: CheckpointInterval must not be negative")
	case o.CheckpointInterval > 0 && o.Checkpoint == "":
		return fmt.Errorf("haralick4d: CheckpointInterval set without a Checkpoint path")
	case o.Resume && o.Checkpoint == "":
		return fmt.Errorf("haralick4d: Resume requires a Checkpoint path")
	case o.ProgressInterval < 0:
		return fmt.Errorf("haralick4d: ProgressInterval must not be negative")
	case o.Progress == nil && o.ProgressInterval > 0:
		return fmt.Errorf("haralick4d: ProgressInterval set without a Progress callback")
	}
	return nil
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

// ResiliencePolicy configures the failure-control primitives — retry
// schedule, circuit breaker, shared retry budget, hedged reads (see
// internal/resilience.Policy). Parse flag-style specs with
// resilience.ParseRetry / ParseBreaker / ParseBudget.
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

// DegradedSummary reports what a SkipDegraded analysis had to drop: the
// lost slice ids, the poisoned chunks, the output boxes left zero and their
// voxel count.
type DegradedSummary = pipeline.DegradedSummary

// RunReport is the structured observability report of one analysis run:
// per-filter busy/blocked/stalled times and span decompositions (read,
// assemble, compute, emit, write), per-stream traffic, network activity
// under the TCP engine, dataset-backend I/O and resilience counters, and a
// pipeline-wide critical-path summary. It serializes to JSON via
// encoding/json or its JSON method.
type RunReport = metrics.RunReport

// Result holds the assembled parameter images of one analysis.
type Result struct {
	// Grids maps each requested feature to its 4D parameter image; empty
	// when the run wrote JPEG slice series instead. The grid dimensions are
	// the dataset dimensions minus ROI−1 per axis (one value per
	// fully-contained ROI).
	Grids map[Feature]*FloatGrid
	// OutputDims are the dimensions of every grid.
	OutputDims [4]int
	// Report is the run's observability report, kept on every run.
	Report *RunReport
	// Degraded summarizes data a SkipDegraded run skipped; nil when the run
	// was clean (and always nil under FailFast, which errors instead).
	Degraded *DegradedSummary
	// Restart reports what a Resume run recovered from its checkpoint
	// journal; nil unless Options.Resume was set.
	Restart *RestartSummary
}

// Analyze runs 4D Haralick texture analysis over an in-memory volume: the
// volume is laid out in memory as a one-node dataset (the paper's
// whole-study-in-RAM case) and run through the same RFR→IIC→texture
// pipeline as AnalyzeDataset, requantized to the configured gray levels
// over the volume's own intensity range and raster-scanned with the
// configured ROI. Outputs are bit-identical at every Texture and
// KernelWorkers setting.
func Analyze(v *Volume, opts *Options) (*Result, error) {
	return AnalyzeContext(context.Background(), v, opts)
}

// AnalyzeContext is Analyze under a context: cancelling ctx makes the
// pipeline stop promptly and return ctx's error.
func AnalyzeContext(ctx context.Context, v *Volume, opts *Options) (*Result, error) {
	return analyze(ctx, opts, func(ctx context.Context, o *Options) (*dataset.Store, error) {
		if o.Checkpoint != "" {
			// The in-memory path holds no disk-resident inputs to re-read on a
			// later life, so a journal could never be honoured.
			return nil, fmt.Errorf("haralick4d: checkpointing requires a disk-resident dataset (AnalyzeDataset)")
		}
		mb, _, err := dataset.WriteMemDataset(v, 1)
		if err != nil {
			return nil, err
		}
		return dataset.OpenBackend(ctx, mb)
	})
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
	return analyze(ctx, opts, func(ctx context.Context, o *Options) (*dataset.Store, error) {
		s := o.Spec
		s.Dataset = url
		return pipeline.OpenDataset(ctx, &s, o.Resilience.NewSet())
	})
}

// analyze is what the library adds to the one run body (pipeline.Prepare
// and Run) behind both entry points: validate the options, bound the run by
// their Deadline, open the dataset, and return the in-memory sink's grids.
func analyze(ctx context.Context, opts *Options, open func(context.Context, *Options) (*dataset.Store, error)) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := pipeline.WithDeadline(ctx, &opts.Spec)
	defer cancel()
	st, err := open(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	spec := opts.Spec
	if spec.Output != OutputJPEG {
		spec.Output = runspec.OutputNone // the in-memory sink
	}
	p, err := pipeline.Prepare(st, &spec, pipeline.Checkpoint{Path: opts.Checkpoint, Resume: opts.Resume, Interval: opts.CheckpointInterval}, nil)
	if err != nil {
		return nil, err
	}
	rep, degraded, err := p.Run(ctx, pipeline.EngineLocal, &pipeline.RunOptions{
		Progress:         opts.Progress,
		ProgressInterval: opts.ProgressInterval,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Grids: map[Feature]*FloatGrid{}, OutputDims: p.OutDims, Report: rep, Degraded: degraded, Restart: p.Restart}
	if p.Results != nil { // nil when the run wrote JPEGs
		for _, f := range p.Config.Analysis.Features {
			res.Grids[f] = p.Results.Grid(f)
		}
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

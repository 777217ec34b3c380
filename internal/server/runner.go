// The job runner: one job's trip through the same path the CLI takes —
// open the dataset by URL, translate the spec into a pipeline config,
// attach the per-job checkpoint journal, build the graph with the
// governor's gate and admission tokens injected, and run it on the local
// engine under the job's context. The runner never touches Job fields
// directly; everything mutable flows back through the onProgress callback
// and the returned runResult, so the server mutex stays with the server.
package server

import (
	"cmp"
	"context"
	"os"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
)

// runInput is the immutable per-run view the scheduler hands the runner.
type runInput struct {
	spec     Spec
	ckptPath string // per-job checkpoint journal; "" when not checkpointable
	resume   bool   // reopen ckptPath instead of truncating it
	outDir   string // resolved output directory ("" for output "none")

	stallTimeout     time.Duration // default when the spec leaves it 0
	progressInterval time.Duration
	onProgress       func(metrics.Progress)

	gate *grant
	res  *resilience.Set // shared per-backend-host breaker/budget/hedger; nil = off
}

// runResult carries what the run produced back to the scheduler.
type runResult struct {
	report  *metrics.RunReport
	restart *pipeline.RestartSummary
}

// runJob executes one job to completion, cancellation or failure.
func runJob(ctx context.Context, in runInput) (runResult, error) {
	var res runResult
	uopts := &dataset.URLOptions{
		CacheBlocks:    in.spec.CacheBlocks,
		CacheBlockSize: in.spec.CacheBlockSize,
		Resilience:     in.res,
		ServeStale:     in.spec.ServeStale,
	}
	st, err := dataset.OpenURL(ctx, in.spec.Dataset, uopts)
	if err != nil {
		return res, err
	}
	defer st.Close()

	cfg, layout, err := pipeline.ConfigFor(&in.spec, st.Meta.Nodes)
	if err != nil {
		return res, err
	}
	// The governor owns the job's read-ahead gate and compute tokens; a
	// gate takes precedence over any depth in the spec.
	cfg.OutDir = in.outDir
	cfg.ReadAheadGate = in.gate.gate
	cfg.Admission = in.gate.tokens
	if cfg.Output != pipeline.OutputCollect {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return res, err
		}
	}

	var jour *checkpoint.Journal
	if in.ckptPath != "" {
		resume := in.resume
		if resume {
			// A job parked or killed before its first portion landed has no
			// journal yet; that is a fresh start, not an error.
			if _, serr := os.Stat(in.ckptPath); serr != nil {
				resume = false
			}
		}
		jour, res.restart, err = pipeline.PrepareCheckpoint(st.Meta.Dims, cfg, in.ckptPath, resume, 0)
		if err != nil {
			return res, err
		}
		if !resume {
			res.restart = nil
		}
	}

	g, sink, _, err := pipeline.Build(st, cfg, layout)
	if err != nil {
		if jour != nil {
			jour.Close()
		}
		return res, err
	}
	ropts := &pipeline.RunOptions{
		Failover:         cfg.FaultPolicy == fault.SkipDegraded,
		StallTimeout:     cmp.Or(time.Duration(in.spec.StallTimeout), in.stallTimeout),
		Progress:         in.onProgress,
		ProgressInterval: in.progressInterval,
	}
	rs, err := pipeline.RunContext(ctx, g, pipeline.EngineLocal, ropts)
	if jour != nil {
		// Close regardless of outcome: the journal is what a pause, park or
		// crash resumes from, so whatever landed must reach the disk.
		if cerr := jour.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return res, err
	}
	if sink != nil {
		if err := sink.Complete(cfg.Analysis.Features); err != nil {
			return res, err
		}
	}
	res.report = rs.Report
	pipeline.AttachBackendStats(res.report, st)
	return res, nil
}

// The job runner: the run body the CLI and the library share, plus what
// only the daemon has. It reads only the daemon's fixed configuration;
// everything mutable flows back through setProgress and its results, so the
// server mutex stays with the server.
package server

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
)

// runJob executes job id's spec to completion, cancellation or failure.
func (s *Server) runJob(ctx context.Context, id int64, spec Spec, resume bool, gate *grant) (*metrics.RunReport, *pipeline.RestartSummary, error) {
	st, err := pipeline.OpenDataset(ctx, &spec, s.resilienceFor(spec.Dataset))
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	// A sink without an out_dir writes under the state directory.
	spec.OutDir = cmp.Or(spec.OutDir, filepath.Join(s.cfg.StateDir, "out", fmt.Sprintf("job-%d", id)))
	var ck pipeline.Checkpoint
	if checkpointable(&spec) {
		ck.Path = filepath.Join(s.cfg.StateDir, fmt.Sprintf("job-%d.ckpt", id))
		// A job parked or killed before its first portion landed has no
		// journal yet; that is a fresh start, not an error.
		_, serr := os.Stat(ck.Path)
		ck.Resume = resume && serr == nil
	}
	p, err := pipeline.Prepare(st, &spec, ck, func(cfg *pipeline.Config, _ *pipeline.Layout) error {
		// The governor owns the job's read-ahead gate and compute tokens; a
		// gate takes precedence over any depth in the spec.
		cfg.ReadAheadGate, cfg.Admission = gate.gate, gate.tokens
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rep, _, err := p.Run(ctx, pipeline.EngineLocal, &pipeline.RunOptions{
		Options:          filter.Options{StallTimeout: s.cfg.StallTimeout},
		Progress:         func(pr metrics.Progress) { s.setProgress(id, pr) },
		ProgressInterval: s.cfg.ProgressInterval,
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, p.Restart, nil
}

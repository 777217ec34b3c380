package pipeline

import (
	"fmt"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/runspec"
	"haralick4d/internal/volume"
)

// RestartSummary reports what a resumed run recovered from its journal and
// how much of the work it can therefore skip.
type RestartSummary struct {
	Portions       int   // verified portion records recovered
	Voxels         int   // output voxels those portions cover, summed over features
	SkippedChunks  int   // texture chunks whose outputs are fully durable
	TotalChunks    int   // chunks in the whole run
	TruncatedBytes int64 // torn-tail bytes discarded on journal reopen
}

// String renders the summary as the one-line restart report the CLIs print.
func (s *RestartSummary) String() string {
	return fmt.Sprintf("resumed: %d portions (%d voxels) recovered, %d/%d chunks skipped, %d torn bytes discarded",
		s.Portions, s.Voxels, s.SkippedChunks, s.TotalChunks, s.TruncatedBytes)
}

// prepareCheckpoint opens the journal ck names, or reopens it on resume,
// and attaches it to cfg as cfg.Journal: it validates cfg against
// datasetDims, derives the run fingerprint that guards the journal against
// configuration drift, and on resume loads and verifies the prior run's
// records into cfg.Recovered, so the graph builders prune completed chunks
// and pre-seed the sink, and returns what it recovered (nil otherwise). The
// caller must Close cfg.Journal after the run; Prepare and Run do.
func prepareCheckpoint(datasetDims [4]int, cfg *Config, ck Checkpoint) (*RestartSummary, error) {
	if cfg.Output == OutputJPEG {
		return nil, fmt.Errorf("pipeline: checkpointing requires OutputCollect or OutputUSO (JPEG stitching holds no durable portions)")
	}
	hdr, chunker, err := header(datasetDims, cfg)
	if err != nil {
		return nil, err
	}
	if !ck.Resume {
		cfg.Journal, err = checkpoint.Create(ck.Path, hdr, ck.Interval)
		return nil, err
	}
	j, st, err := checkpoint.Resume(ck.Path, hdr, ck.Interval)
	if err != nil {
		return nil, err
	}
	skip, err := checkpoint.CompleteChunks(st, chunker, hdr.Features)
	if err != nil {
		j.Close()
		return nil, err
	}
	cfg.Journal, cfg.Recovered = j, st
	return &RestartSummary{
		Portions:       len(st.Portions),
		Voxels:         st.RecoveredVoxels(),
		SkippedChunks:  len(skip),
		TotalChunks:    chunker.Count(),
		TruncatedBytes: st.TruncatedBytes,
	}, nil
}

// header validates cfg against datasetDims and returns the checkpoint header
// that guards the run's journal against configuration drift, with the run's
// chunk plan.
func header(datasetDims [4]int, cfg *Config) (checkpoint.Header, *volume.Chunker, error) {
	if err := cfg.Validate(datasetDims); err != nil {
		return checkpoint.Header{}, nil, err
	}
	chunker, err := volume.NewChunker(datasetDims, cfg.ChunkShape, cfg.Analysis.ROI)
	if err != nil {
		return checkpoint.Header{}, nil, err
	}
	hdr := checkpoint.Header{
		Dims:           datasetDims,
		ROI:            cfg.Analysis.ROI,
		ChunkShape:     cfg.ChunkShape,
		OutDims:        chunker.OutputDims(),
		GrayLevels:     cfg.Analysis.GrayLevels,
		NDim:           cfg.Analysis.NDim,
		Distance:       cfg.Analysis.Distance,
		Representation: int(cfg.Analysis.Representation),
		Features:       featureIDs(cfg.Analysis.Features),
		Split:          cfg.Impl == SplitImpl,
	}
	if hdr.Split {
		for i := range chunker.Count() {
			if !core.WholePlanes(chunker.Chunk(i).Origins, &cfg.Analysis) {
				hdr.GrainWorkers = cfg.Analysis.EffectiveWorkers()
				break
			}
		}
	}
	return hdr, chunker, nil
}

// Fingerprint is the digest of the checkpoint header a run of s over a
// dataset of datasetDims journals under: two specs share it exactly when a
// journal of one could resume the other, so it also keys measurements that
// only those fields can change (the experiments' memo).
func Fingerprint(s *runspec.Spec, datasetDims [4]int) (string, error) {
	cfg, _, err := ConfigFor(s, 0)
	if err != nil {
		return "", err
	}
	hdr, _, err := header(datasetDims, cfg)
	if err != nil {
		return "", err
	}
	return hdr.Fingerprint(), nil
}

// featureIDs lists fs by their journal ids.
func featureIDs(fs []features.Feature) []int {
	ids := make([]int, len(fs))
	for i, f := range fs {
		ids[i] = int(f)
	}
	return ids
}

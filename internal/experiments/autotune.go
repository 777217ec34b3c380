package experiments

import (
	"fmt"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/volume"
)

// AutoTuneSweep (figure id "autotune") tunes the texture copy count — baked
// into the graph at build time — the only honest way: repeated real trials of
// the local-engine pipeline over the disk-resident phantom, best of Repeats
// per cell.
//
// Every measured cell is journaled in the Env's memo file under a
// (config fingerprint, parameter cell) key. The fingerprint is the
// checkpoint header's digest of the analysis geometry, so exactly the
// configuration changes that would invalidate a resume journal also
// invalidate a memoized measurement — and a repeated sweep over an
// unchanged configuration recomputes nothing. The figure's `memo:` note
// reports the split (CI asserts recomputed=0 on the second invocation).
func AutoTuneSweep(e *Env) (*Figure, error) {
	copiesSweep := []int{1, 2, 4}
	repeats := e.Repeats
	if repeats < 1 {
		repeats = 1
	}
	// The swept cells only differ on the parallel scan path, so the worker
	// count is pinned above one; everything else rides the Env defaults.
	analysis := e.analysis(core.SparseMatrix)
	analysis.Workers = 2

	// The fingerprint half of the memo key: the same header bytes a resume
	// would verify, over the cell-independent configuration.
	probe := &pipeline.Config{
		Analysis:   analysis,
		ChunkShape: e.Scale.ChunkShape,
		Impl:       pipeline.HMPImpl,
		Policy:     filter.DemandDriven,
		Output:     pipeline.OutputCollect,
	}
	if err := probe.Validate(e.Store.Meta.Dims); err != nil {
		return nil, err
	}
	chunker, err := volume.NewChunker(e.Store.Meta.Dims, probe.ChunkShape, analysis.ROI)
	if err != nil {
		return nil, err
	}
	feats := make([]int, len(probe.Analysis.Features))
	for i, f := range probe.Analysis.Features {
		feats[i] = int(f)
	}
	hdr := checkpoint.Header{
		Dims:           e.Store.Meta.Dims,
		ROI:            analysis.ROI,
		ChunkShape:     probe.ChunkShape,
		OutDims:        chunker.OutputDims(),
		GrayLevels:     analysis.GrayLevels,
		NDim:           analysis.NDim,
		Distance:       analysis.Distance,
		Representation: int(probe.Analysis.Representation),
		Features:       feats,
	}
	fp := hdr.Fingerprint()

	var memo *memoFile
	if e.MemoPath != "" {
		memo, err = openMemo(e.MemoPath)
		if err != nil {
			return nil, err
		}
	}
	recomputed, cached := 0, 0

	measure := func(copies int) (float64, error) {
		cell := fmt.Sprintf("impl=hmp,workers=%d,ra=%d,copies=%d", analysis.Workers, e.ReadAhead, copies)
		if memo != nil {
			if c, ok := memo.get(memoKey(fp, cell)); ok {
				cached++
				return float64(c.ElapsedNS) / 1e9, nil
			}
		}
		recomputed++
		var best time.Duration
		for r := 0; r < repeats; r++ {
			cfg := &pipeline.Config{
				Analysis:   analysis,
				ChunkShape: e.Scale.ChunkShape,
				Impl:       pipeline.HMPImpl,
				Policy:     filter.DemandDriven,
				Output:     pipeline.OutputCollect,
				ReadAhead:  e.ReadAhead,
			}
			layout := &pipeline.Layout{HMPNodes: make([]int, copies)}
			g, _, _, err := pipeline.Build(e.Store, cfg, layout)
			if err != nil {
				return 0, err
			}
			rs, err := pipeline.RunContext(e.ctx(), g, pipeline.EngineLocal, &pipeline.RunOptions{StallTimeout: e.StallTimeout})
			if err != nil {
				return 0, err
			}
			e.LastReport = rs
			if r == 0 || rs.Elapsed() < best {
				best = rs.Elapsed()
			}
		}
		if memo != nil {
			if err := memo.put(memoKey(fp, cell), memoCell{ElapsedNS: best.Nanoseconds()}); err != nil {
				return 0, err
			}
		}
		return best.Seconds(), nil
	}

	fig := &Figure{
		ID:     "autotune",
		Title:  "cross-run tuning sweep: texture copies (memoized)",
		XLabel: "texture copies",
		YLabel: "execution time (host s)",
	}
	bestSec, bestCopies := 0.0, 0
	s := Series{Label: "blocked kernel, 2 workers"}
	for _, copies := range copiesSweep {
		sec, err := measure(copies)
		if err != nil {
			return nil, fmt.Errorf("autotune copies=%d: %w", copies, err)
		}
		s.X = append(s.X, float64(copies))
		s.Y = append(s.Y, sec)
		if bestCopies == 0 || sec < bestSec {
			bestSec, bestCopies = sec, copies
		}
	}
	fig.Series = append(fig.Series, s)
	memoPath := e.MemoPath
	if memoPath == "" {
		memoPath = "(disabled)"
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("best cell: copies=%d (%.3f s, best of %d repeats per cell)", bestCopies, bestSec, repeats),
		fmt.Sprintf("memo: cells=%d recomputed=%d cached=%d path=%s",
			len(copiesSweep), recomputed, cached, memoPath),
		fmt.Sprintf("config fingerprint %s (checkpoint header digest: the changes that invalidate a resume journal invalidate these cells)", fp),
		"real local-engine runs over the disk-resident phantom; outputs are bit-identical across all cells, only timing differs")
	return fig, nil
}

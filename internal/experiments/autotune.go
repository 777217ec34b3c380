package experiments

import (
	"fmt"

	"haralick4d/internal/core"
	"haralick4d/internal/pipeline"
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
	repeats := max(e.Repeats, 1)
	// The swept cells only differ on the parallel scan path, so the worker
	// count is pinned above one; everything else rides the base Spec.
	spec := e.Spec
	spec.Representation, spec.KernelWorkers = core.SparseMatrix, 2

	// The fingerprint half of the memo key: the digest of the checkpoint
	// header a run of the cell-independent configuration would journal.
	fp, err := pipeline.Fingerprint(&spec, e.Store.Meta.Dims)
	if err != nil {
		return nil, err
	}
	ra, err := spec.ReadAhead.MarshalText()
	if err != nil {
		return nil, err
	}

	var memo *memoFile
	if e.MemoPath != "" {
		memo, err = openMemo(e.MemoPath)
		if err != nil {
			return nil, err
		}
	}
	recomputed, cached := 0, 0

	measure := func(copies int) (float64, error) {
		cell := fmt.Sprintf("impl=hmp,workers=%d,ra=%s,copies=%d", spec.KernelWorkers, ra, copies)
		if memo != nil {
			if c, ok := memo.get(memoKey(fp, cell)); ok {
				cached++
				return float64(c.ElapsedNS) / 1e9, nil
			}
		}
		recomputed++
		// Every filter on node 0: the local engine runs copies as
		// goroutines, so only the copy count is measured.
		rs, err := e.run(spec, pipeline.Layout{HMPNodes: make([]int, copies)}, pipeline.EngineLocal, pipeline.RunOptions{}, repeats)
		if err != nil {
			return 0, err
		}
		if memo != nil {
			if err := memo.put(memoKey(fp, cell), memoCell{ElapsedNS: rs.Elapsed().Nanoseconds()}); err != nil {
				return 0, err
			}
		}
		return rs.Elapsed().Seconds(), nil
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

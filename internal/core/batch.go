package core

import (
	"slices"

	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// MatrixBatch is a reusable container for the batch builders' outputs. The
// matrices of a batch share a handful of backing arrays (one set per
// worker) instead of allocating per ROI, and every backing array is kept
// and re-carved on the next *Into call, so a filter that processes chunks
// in a loop reaches a steady state with no per-chunk allocation. Batches
// are recycled through a sync.Pool by the filter layer.
//
// The published matrices alias the container's arenas: a batch must not be
// reused (or returned to a pool) until its consumer is done with them.
type MatrixBatch struct {
	Sparse []*glcm.Sparse // populated by SparseBatchInto, raster order
	Full   []*glcm.Full   // populated by FullBatchInto, raster order

	// EntryHint is the number of sparse entries the caller expects the next
	// SparseBatchInto to store — typically its previous packet's entries
	// per ROI times this box's ROIs, since packets and chunks differ in
	// size. A container whose arenas are smaller (a fresh one: over a
	// network transport the batches never come back to the producer's pool)
	// allocates them at that size once instead of growing them by doubling.
	EntryHint int

	sparseHeaders []glcm.Sparse
	fullHeaders   []glcm.Full
	shards        []batchShard
	slots         []grainSlot // per grain, where its matrices are stored
}

// batchShard is one worker's private output arena. A worker appends the
// matrices of the grains it is dealt, in the order it takes them; the
// grain slots say where each grain's run starts, so the headers are laid
// out in grain order, which is raster order.
type batchShard struct {
	entries []glcm.Entry // sparse entry arena
	cells   []uint32     // dense counts arena
	counts  []int        // entries per matrix (sparse)
	totals  []uint64     // pair total per matrix
}

// grainSlot locates one grain's matrices: in shard w, from matrix m (an
// index into counts and totals) and, for sparse batches, entry e on.
type grainSlot struct {
	w, m, e int
}

// NumEntries returns the number of sparse entries the batch stores.
func (b *MatrixBatch) NumEntries() int {
	n := 0
	for i := range b.shards {
		n += len(b.shards[i].entries)
	}
	return n
}

func (b *MatrixBatch) reset(workers, grains int) {
	b.Sparse = b.Sparse[:0]
	b.Full = b.Full[:0]
	if cap(b.shards) < workers {
		b.shards = append(b.shards[:cap(b.shards)], make([]batchShard, workers-cap(b.shards))...)
	}
	b.shards = b.shards[:workers]
	if cap(b.slots) < grains {
		b.slots = make([]grainSlot, grains)
	}
	b.slots = b.slots[:grains]
	for i := range b.shards {
		sh := &b.shards[i]
		// Workers are dealt grains on demand, so one may take more than its
		// share: a shard is sized for twice its share of the hint (all of it
		// for one or two workers) plus an eighth of its share, and one that
		// still runs out grows by doubling.
		if want := min(2*b.EntryHint/workers, b.EntryHint) + b.EntryHint/(8*workers); cap(sh.entries) < want {
			sh.entries = make([]glcm.Entry, 0, want)
		}
		sh.entries = sh.entries[:0]
		sh.cells = sh.cells[:0]
		sh.counts = sh.counts[:0]
		sh.totals = sh.totals[:0]
	}
}

// SparseBatchInto computes one sparse co-occurrence matrix per ROI origin
// of the box, in raster order, publishing them on b.Sparse. The matrices
// alias b's arenas; see MatrixBatch. With an effective worker count above
// one the raster rows are dealt in grains to a worker pool running the
// blocked kernel's row walk; at one it runs the sequential reference kernel.
func SparseBatchInto(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, b *MatrixBatch) error {
	if region == nil {
		return ErrNilRegion
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	workers := spanWorkers(cfg, origins)
	gs := newGrains(origins, workers)
	b.reset(workers, gs.n)
	local := make([]Stats, workers)
	nx := origins.Shape()[0]
	err := runGrains(gs, workers, func(w int, take func() (int, bool)) error {
		sc := newRowScanner(region, origins, cfg, SparseMatrix, workers > 1)
		defer sc.release()
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		// The scanner snapshots straight into the shard's entry arena.
		sh := &b.shards[w]
		sc.entries, sc.keep = sh.entries, true
		defer func() { sh.entries = sc.entries }()
		visit := func(_ [4]int, _ *glcm.Full, s *glcm.Sparse) error {
			sh.counts = append(sh.counts, len(s.Entries))
			sh.totals = append(sh.totals, s.Total)
			return nil
		}
		for g, ok := take(); ok; g, ok = take() {
			b.slots[g] = grainSlot{w: w, m: len(sh.counts), e: len(sc.entries)}
			r0, r1 := gs.rows(g)
			// An arena about to run out doubles ahead of the grain, at the
			// entries per matrix so far: append's own growth of a slice
			// this large is a quarter, which copies the arena over and over.
			if m := len(sh.counts); m > 0 {
				if need := len(sc.entries) / m * (r1 - r0) * nx; cap(sc.entries)-len(sc.entries) < need {
					sc.entries = slices.Grow(sc.entries, max(need, cap(sc.entries)))
				}
			}
			if err := sc.scan(r0, r1, st, visit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mergeStats(stats, local)

	n := origins.NumVoxels()
	if cap(b.sparseHeaders) < n {
		b.sparseHeaders = make([]glcm.Sparse, n)
	}
	hdrs := b.sparseHeaders[:n]
	k := 0
	for g, slot := range b.slots {
		sh := &b.shards[slot.w]
		off := slot.e
		r0, r1 := gs.rows(g)
		for m := slot.m; m < slot.m+(r1-r0)*nx; m++ {
			c := sh.counts[m]
			hdrs[k] = glcm.Sparse{G: cfg.GrayLevels, Entries: sh.entries[off : off+c : off+c], Total: sh.totals[m]}
			b.Sparse = append(b.Sparse, &hdrs[k])
			k++
			off += c
		}
	}
	return nil
}

// FullBatchInto is SparseBatchInto for the dense representation: one G×G
// matrix per ROI origin, carved out of per-worker arenas, published on
// b.Full in raster order. The batch ships the matrices, so this is the one
// zero-skipping consumer that still materialises them.
func FullBatchInto(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, b *MatrixBatch) error {
	if region == nil {
		return ErrNilRegion
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	workers := spanWorkers(cfg, origins)
	gs := newGrains(origins, workers)
	b.reset(workers, gs.n)
	local := make([]Stats, workers)
	err := runGrains(gs, workers, func(w int, take func() (int, bool)) error {
		sc := newRowScanner(region, origins, cfg, FullMatrixNoSkip, workers > 1)
		defer sc.release()
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		sh := &b.shards[w]
		visit := func(_ [4]int, full *glcm.Full, _ *glcm.Sparse) error {
			sh.cells = append(sh.cells, full.Counts...)
			sh.totals = append(sh.totals, full.Total)
			return nil
		}
		for g, ok := take(); ok; g, ok = take() {
			b.slots[g] = grainSlot{w: w, m: len(sh.totals)}
			r0, r1 := gs.rows(g)
			if err := sc.scan(r0, r1, st, visit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	mergeStats(stats, local)

	n := origins.NumVoxels()
	if cap(b.fullHeaders) < n {
		b.fullHeaders = make([]glcm.Full, n)
	}
	hdrs := b.fullHeaders[:n]
	gg := cfg.GrayLevels * cfg.GrayLevels
	nx := origins.Shape()[0]
	k := 0
	for g, slot := range b.slots {
		sh := &b.shards[slot.w]
		r0, r1 := gs.rows(g)
		for m := slot.m; m < slot.m+(r1-r0)*nx; m++ {
			hdrs[k] = glcm.Full{G: cfg.GrayLevels, Counts: sh.cells[m*gg : (m+1)*gg : (m+1)*gg], Total: sh.totals[m]}
			b.Full = append(b.Full, &hdrs[k])
			k++
		}
	}
	return nil
}

package core

import (
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
	// SparseBatchInto to store — typically NumEntries of its previous
	// packet. A container whose arenas are smaller (a fresh one: over a
	// network transport the batches never come back to the producer's pool)
	// allocates them at that size once instead of growing them by doubling.
	EntryHint int

	sparseHeaders []glcm.Sparse
	fullHeaders   []glcm.Full
	shards        []batchShard
}

// batchShard is one worker's private output arena. Workers own contiguous
// raster-row blocks, so concatenating the shards in worker order restores
// global raster order.
type batchShard struct {
	entries []glcm.Entry // sparse entry arena
	cells   []uint32     // dense counts arena
	counts  []int        // entries per matrix (sparse)
	totals  []uint64     // pair total per matrix
}

// NumEntries returns the number of sparse entries the batch stores.
func (b *MatrixBatch) NumEntries() int {
	n := 0
	for i := range b.shards {
		n += len(b.shards[i].entries)
	}
	return n
}

func (b *MatrixBatch) reset(workers int) {
	b.Sparse = b.Sparse[:0]
	b.Full = b.Full[:0]
	if cap(b.shards) < workers {
		b.shards = append(b.shards[:cap(b.shards)], make([]batchShard, workers-cap(b.shards))...)
	}
	b.shards = b.shards[:workers]
	for i := range b.shards {
		sh := &b.shards[i]
		// Row blocks are near-equal, so a worker's share of the hint plus an
		// eighth covers it; a shard that still runs out grows by doubling.
		if want := b.EntryHint/workers + b.EntryHint/(8*workers); cap(sh.entries) < want {
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
// one the raster rows are striped across a worker pool running the blocked
// kernel's row walk; at one it runs the sequential reference kernel.
func SparseBatchInto(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, b *MatrixBatch) error {
	if region == nil {
		return ErrNilRegion
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	workers := spanWorkers(cfg, origins)
	b.reset(workers)
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	local := make([]Stats, workers)
	err := runRows(rows, workers, func(w, r0, r1 int) error {
		sc := newRowScanner(region, origins, cfg, SparseMatrix, workers > 1)
		defer sc.release()
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		// The scanner snapshots straight into the shard's entry arena.
		sh := &b.shards[w]
		sc.entries, sc.keep = sh.entries, true
		err := sc.scan(r0, r1, st, func(_ [4]int, _ *glcm.Full, s *glcm.Sparse) error {
			sh.counts = append(sh.counts, len(s.Entries))
			sh.totals = append(sh.totals, s.Total)
			return nil
		})
		sh.entries = sc.entries
		return err
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
	for si := range b.shards {
		sh := &b.shards[si]
		off := 0
		for m, c := range sh.counts {
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
	b.reset(workers)
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	local := make([]Stats, workers)
	err := runRows(rows, workers, func(w, r0, r1 int) error {
		sc := newRowScanner(region, origins, cfg, FullMatrixNoSkip, workers > 1)
		defer sc.release()
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		sh := &b.shards[w]
		return sc.scan(r0, r1, st, func(_ [4]int, full *glcm.Full, _ *glcm.Sparse) error {
			sh.cells = append(sh.cells, full.Counts...)
			sh.totals = append(sh.totals, full.Total)
			return nil
		})
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
	k := 0
	for si := range b.shards {
		sh := &b.shards[si]
		for off := 0; off < len(sh.cells); off += gg {
			hdrs[k] = glcm.Full{G: cfg.GrayLevels, Counts: sh.cells[off : off+gg : off+gg], Total: sh.totals[off/gg]}
			b.Full = append(b.Full, &hdrs[k])
			k++
		}
	}
	return nil
}

package core

import (
	"sync"
	"sync/atomic"

	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// MatrixBatch is one grain's co-occurrence matrices: one per ROI origin of
// Origins, in raster order, on Sparse or Full. The matrices are carved out
// of the batch's own arenas, which a container keeps from grain to grain,
// so a streamer whose batches come back to its free list reaches a steady
// state with no per-grain allocation.
//
// The matrices alias the arenas: a batch must not be released until its
// consumer is done with them.
type MatrixBatch struct {
	Origins volume.Box
	Sparse  []*glcm.Sparse
	Full    []*glcm.Full

	entries       []glcm.Entry // sparse entry arena
	cells         []uint32     // dense counts arena
	sparseHeaders []glcm.Sparse
	fullHeaders   []glcm.Full
	list          *BatchList
}

// Release puts the batch back on the free list it was taken from, or drops
// it when the list is full; its matrices become invalid.
func (b *MatrixBatch) Release() {
	b.list.put(b)
}

// BatchList is a bounded free list of batch containers, shared by the
// workers of a streamer and by the consumers that release its batches on
// any goroutine. It also keeps the most sparse entries per ROI a finished
// grain stored, which sizes the arenas it hands out.
type BatchList struct {
	max    int
	pooled func(hit bool) // told whether each container came off the list; may be nil

	mu     sync.Mutex
	free   []*MatrixBatch
	perROI float64
}

// NewBatchList returns a free list keeping at most max released
// containers; pooled, when set, is called for every container taken with
// whether it was reused.
func NewBatchList(max int, pooled func(hit bool)) *BatchList {
	return &BatchList{max: max, pooled: pooled}
}

// get takes a container for the matrices of one grain, origins, and makes
// sure its headers and dense arena hold size of them — the box's largest
// grain, so that a container fits whichever grain of the box it is dealt.
// A new container's sparse arena is made at the entries per ROI seen so far
// (see arena); a reused one keeps the arena its last grain left it (see
// sized).
func (l *BatchList) get(origins volume.Box, size int, sparse bool, g int) *MatrixBatch {
	l.mu.Lock()
	var b *MatrixBatch
	if k := len(l.free); k > 0 {
		b, l.free = l.free[k-1], l.free[:k-1]
	}
	want := l.perROI * float64(size)
	l.mu.Unlock()
	if l.pooled != nil {
		l.pooled(b != nil)
	}
	if b == nil {
		b = &MatrixBatch{list: l}
		if sparse {
			b.entries = arena(want)
		}
	}
	b.Origins = origins
	b.Sparse, b.Full = b.Sparse[:0], b.Full[:0]
	if sparse {
		if cap(b.sparseHeaders) < size {
			b.sparseHeaders, b.Sparse = make([]glcm.Sparse, size), make([]*glcm.Sparse, 0, size)
		}
	} else {
		if want := size * g * g; cap(b.cells) < want {
			b.cells = make([]uint32, 0, want)
		}
		if cap(b.fullHeaders) < size {
			b.fullHeaders, b.Full = make([]glcm.Full, size), make([]*glcm.Full, 0, size)
		}
	}
	b.entries, b.cells = b.entries[:0], b.cells[:0]
	return b
}

// arena makes a sparse entry arena for want entries with a quarter to
// spare, so that a grain a little above the largest seen so far fits.
func arena(want float64) []glcm.Entry {
	return make([]glcm.Entry, 0, int(want*5/4))
}

func (l *BatchList) put(b *MatrixBatch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < l.max {
		l.free = append(l.free, b)
	}
}

// sized records the entries per ROI of the finished sparse grain in b and
// gives b an arena for size matrices at the estimate, unless it has one:
// the next grain b is dealt then fits, and an arena grown by append within
// a first row is not kept.
func (l *BatchList) sized(b *MatrixBatch, size int) {
	n := 0
	for _, m := range b.Sparse {
		n += len(m.Entries)
	}
	l.mu.Lock()
	l.perROI = max(l.perROI, float64(n)/float64(len(b.Sparse)))
	want := l.perROI * float64(size)
	l.mu.Unlock()
	if cap(b.entries) < int(want) {
		b.entries = arena(want)
	}
}

// scan fills the batch with the matrices of raster rows [r0, r1), which
// must be its Origins: the scanner snapshots sparse matrices straight into
// the entry arena, and dense ones are copied into the cell arena. Once a
// raster row is stored, a sparse arena with less room left than the last
// matrix took — the next ROI overlaps it all but one slice — is replaced by
// one sized for size matrices at the entries per matrix so far; the
// matrices stored keep the old backing, so nothing is copied. Within the
// first row, an arena that runs out grows by append.
func (b *MatrixBatch) scan(sc *rowScanner, r0, r1, size, g int, stats *Stats) error {
	if sc.sparse != nil {
		n := (r1 - r0) * sc.nx
		sc.entries, sc.keep = b.entries, true
		err := sc.scan(r0, r1, stats, func(_ [4]int, _ *glcm.Full, s *glcm.Sparse) error {
			end := len(sc.entries)
			k := len(b.Sparse)
			b.sparseHeaders[k] = glcm.Sparse{G: g, Entries: sc.entries[end-len(s.Entries) : end : end], Total: s.Total}
			b.Sparse = append(b.Sparse, &b.sparseHeaders[k])
			if k+1 >= sc.nx && k+1 < n && cap(sc.entries)-end < len(s.Entries) {
				sc.entries = arena(float64(end) / float64(k+1) * float64(size))
			}
			return nil
		})
		b.entries = sc.entries
		return err
	}
	return sc.scan(r0, r1, stats, func(_ [4]int, full *glcm.Full, _ *glcm.Sparse) error {
		b.cells = append(b.cells, full.Counts...)
		end := len(b.cells)
		k := len(b.Full)
		b.fullHeaders[k] = glcm.Full{G: g, Counts: b.cells[end-len(full.Counts) : end : end], Total: full.Total}
		b.Full = append(b.Full, &b.fullHeaders[k])
		return nil
	})
}

// StreamBatches computes one co-occurrence matrix per ROI origin of the
// box — sparse for the SparseMatrix representation, dense otherwise —
// grain by grain: workers take grains as AnalyzeRegionInto deals them, scan
// each into its own container from free, and every finished grain is handed
// to emit on the caller's goroutine while the workers go on. Grains arrive
// in the order they finish; each batch's Origins says where it lies. emit
// owns the batch it is given and releases it once its matrices are used.
// With an effective worker count of one, every grain is scanned and emitted
// in raster order on the caller's goroutine by the sequential reference
// kernel.
//
// An error from emit stops the workers after their current grain, and
// StreamBatches returns it; the batches still in flight are released.
func StreamBatches(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, free *BatchList, emit func(*MatrixBatch) error) error {
	if region == nil {
		return ErrNilRegion
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	rep := FullMatrixNoSkip
	if cfg.Representation == SparseMatrix {
		rep = SparseMatrix
	}
	workers := spanWorkers(cfg, origins)
	gs := newGrains(origins, workers)
	size := (gs.sy + gs.perPlane - 1) / gs.perPlane * origins.Shape()[0]
	local := make([]Stats, workers)
	var stop atomic.Bool
	done := make(chan *MatrixBatch)
	hand := func(b *MatrixBatch) error {
		done <- b
		return nil
	}
	if workers == 1 {
		hand = emit
	}
	work := func(w int, take func() (int, bool)) error {
		sc := newRowScanner(region, origins, cfg, rep, workers > 1)
		defer sc.release()
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		for g, ok := take(); ok && !stop.Load(); g, ok = take() {
			box := gs.box(origins, g)
			b := free.get(box, size, rep == SparseMatrix, cfg.GrayLevels)
			r0, r1 := gs.rows(g)
			if err := b.scan(sc, r0, r1, size, cfg.GrayLevels, st); err != nil {
				b.Release()
				return err
			}
			if rep == SparseMatrix {
				free.sized(b, size)
			}
			if err := hand(b); err != nil {
				return err
			}
		}
		return nil
	}
	if workers == 1 {
		if err := runGrains(gs, 1, work); err != nil {
			return err
		}
		mergeStats(stats, local)
		return nil
	}
	var err error
	go func() {
		err = runGrains(gs, workers, work)
		close(done)
	}()
	defer func() {
		stop.Store(true)
		for b := range done {
			b.Release()
		}
	}()
	for b := range done {
		if e := emit(b); e != nil {
			return e
		}
	}
	if err != nil {
		return err
	}
	mergeStats(stats, local)
	return nil
}

// WholePlanes reports whether StreamBatches deals the box under cfg in
// whole (z, t) planes. Only when it does not do its grains depend on the
// worker count.
func WholePlanes(origins volume.Box, cfg *Config) bool {
	return newGrains(origins, spanWorkers(cfg, origins)).perPlane == 1
}

// SparseBatch computes one sparse co-occurrence matrix per ROI origin of
// the box, in raster order: StreamBatches collected into one slice. The
// matrices share the arenas of their grains' batches.
func SparseBatch(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats) ([]*glcm.Sparse, error) {
	c := *cfg
	c.Representation = SparseMatrix
	out := make([]*glcm.Sparse, origins.NumVoxels())
	if err := collect(region, origins, &c, stats, func(at int, b *MatrixBatch) { copy(out[at:], b.Sparse) }); err != nil {
		return nil, err
	}
	return out, nil
}

// FullBatch is SparseBatch for the dense representation: one G×G matrix per
// ROI origin, in raster order.
func FullBatch(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats) ([]*glcm.Full, error) {
	c := *cfg
	c.Representation = FullMatrixNoSkip
	out := make([]*glcm.Full, origins.NumVoxels())
	if err := collect(region, origins, &c, stats, func(at int, b *MatrixBatch) { copy(out[at:], b.Full) }); err != nil {
		return nil, err
	}
	return out, nil
}

// collect streams the box and passes each batch to place with the raster
// index of its first origin in the box.
func collect(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, place func(at int, b *MatrixBatch)) error {
	shape := origins.Shape()
	return StreamBatches(region, origins, cfg, stats, NewBatchList(0, nil), func(b *MatrixBatch) error {
		rel := [4]int{}
		for k := range rel {
			rel[k] = b.Origins.Lo[k] - origins.Lo[k]
		}
		place(((rel[3]*shape[2]+rel[2])*shape[1]+rel[1])*shape[0]+rel[0], b)
		return nil
	})
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// This file implements the parallel intra-chunk compute path. The unit of
// work distribution is a grain: a run of consecutive ROI raster rows (a row
// is fixed y, z, t — all origins along x) inside one (z, t) plane, a whole
// plane when there are enough of them (see grains). Workers take grains from
// a shared counter on demand, and every grain's results land at its own
// raster position, so the output is in global raster order whoever computed
// it. Each worker owns its own kernel, scratch matrix and feature
// calculator, so the hot loop performs no allocation and shares no mutable
// state. A worker walks a grain's rows with the blocked kernel
// (glcm.Blocked.StartRow/Step), which slides the window along x within a row
// and — on its column path — carries per-column pair histograms and
// gray-level bounds from one row to the row below, so only a grain's first
// row is rebuilt, and every snapshot scans only the levels present in its
// ROI. The zero-skipping full representation takes the kernel's sorted
// non-zero list straight to the feature sums; only FullMatrixNoSkip and the
// HCC batches materialise a dense matrix. Geometries the blocked planner
// rejects (more than 64 directions, say) run the oracle kernels on every
// worker, one full recompute per ROI.
//
// Workers == 1 runs no blocked kernel: ScanRegion, and the batch builders'
// single worker, recompute every ROI with the oracle kernels. Because
// co-occurrence counts are integers and each matrix's features are computed
// independently, the results are bit-identical across worker counts.

// EffectiveWorkers resolves the Workers knob to a concrete worker count:
// the knob itself when positive, GOMAXPROCS when zero.
func (c *Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// grains deals the ROI raster rows of an origin box to workers on demand.
// A grain is a run of consecutive rows inside one (z, t) plane: the whole
// plane when the box has at least twice as many planes as workers, so that
// every grain's rows carry one into the next and a plane costs its one
// rebuild, as in the sequential walk; otherwise each plane is cut into equal
// runs, so that every worker gets about two grains. Grains are numbered in
// raster order.
type grains struct {
	sy       int // rows per (z, t) plane
	perPlane int // grains per plane
	n        int // grains in the box
}

func newGrains(origins volume.Box, workers int) grains {
	shape := origins.Shape()
	planes := shape[2] * shape[3]
	per := 1
	if planes < 2*workers {
		per = min(shape[1], (2*workers+planes-1)/planes)
	}
	return grains{sy: shape[1], perPlane: per, n: planes * per}
}

// rows returns the half-open raster-row range of grain i.
func (gs grains) rows(i int) (r0, r1 int) {
	plane, j := i/gs.perPlane, i%gs.perPlane
	base, rem := gs.sy/gs.perPlane, gs.sy%gs.perPlane
	lo := j*base + min(j, rem)
	hi := lo + base
	if j < rem {
		hi++
	}
	return plane*gs.sy + lo, plane*gs.sy + hi
}

// box returns the origins of grain i: its rows, each along the whole x
// extent of the box, in one (z, t) plane.
func (gs grains) box(origins volume.Box, i int) volume.Box {
	r0, r1 := gs.rows(i)
	plane, sz := r0/gs.sy, origins.Shape()[2]
	b := origins
	b.Lo[1] += r0 % gs.sy
	b.Lo[2] += plane % sz
	b.Lo[3] += plane / sz
	b.Hi[1], b.Hi[2], b.Hi[3] = b.Lo[1]+r1-r0, b.Lo[2]+1, b.Lo[3]+1
	return b
}

// spanWorkers bounds the effective worker count by the number of grains the
// origin box deals, so that no worker starts without one.
func spanWorkers(cfg *Config, origins volume.Box) int {
	w := cfg.EffectiveWorkers()
	return max(1, min(w, newGrains(origins, w).n))
}

// runGrains runs work once per worker, each calling take for its next grain
// until take reports none is left: inline over every grain in order for a
// single worker, otherwise on one goroutine per worker, all taking from a
// shared counter — a worker whose grains run fast takes more of them, so no
// core idles while another works through a slow half. It returns the first
// non-nil error in worker order.
func runGrains(gs grains, workers int, work func(w int, take func() (g int, ok bool)) error) error {
	var next atomic.Int64
	take := func() (int, bool) {
		g := int(next.Add(1) - 1)
		return g, g < gs.n
	}
	if workers <= 1 {
		return work(0, take)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = work(w, take)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rowScanner is one worker's kernel state: the scan geometry plus its own
// blocked kernel, or the scratch matrix the oracle kernels recompute per ROI.
// Matrices handed to the visitor are reused across calls and must not be
// retained — except that with keep set the sparse matrices' entries
// accumulate, in visiting order, in the entries arena, and on the blocked
// path each visited matrix aliases its part of it.
type rowScanner struct {
	cfg      *Config
	dirs     []glcm.Direction
	data     []uint8
	strides  [4]int
	lo       [4]int // origins.Lo
	regionLo [4]int
	sy, sz   int
	nx       int
	pairs    uint64 // logical pairs per matrix (Total/2)
	full     *glcm.Full
	sparse   *glcm.Sparse
	blocked  *glcm.Blocked // nil: the oracle kernels recompute every ROI
	entries  []glcm.Entry  // sparse entry arena
	keep     bool
}

// newRowScanner builds a scanner for the given scan; rep selects the matrix
// representation (independently of cfg.Representation, because the batch
// builders fix the representation by API): SparseMatrix visits sparse
// matrices, FullMatrixNoSkip dense ones, and FullMatrix — whose consumer
// skips the zeros anyway — the blocked kernel's non-zero list as a sparse
// matrix, or dense ones on the oracle kernels. Features do not depend on the
// representation and Full.NonZero counts a mirror pair once, like the list,
// so the choice is invisible in results and Stats alike.
//
// When blocked is set the scanner plans the cache-blocked, direction-batched
// kernel (pooled across chunks via glcm.GetBlocked) for rows of the box's x
// extent — the kernel itself picks the column path or the x-slab slide from
// the geometry. Without it, or when the planner rejects the geometry, every
// ROI is recomputed with glcm.ComputeFull or glcm.ComputeSparse: the oracle.
// Callers must release() the scanner when done so the pooled scratch is
// recycled.
func newRowScanner(region *volume.Region, origins volume.Box, cfg *Config, rep Representation, blocked bool) *rowScanner {
	shape := origins.Shape()
	dirs := cfg.DirectionSet()
	s := &rowScanner{
		cfg:      cfg,
		dirs:     dirs,
		data:     region.Data,
		strides:  volume.Strides(region.Box.Shape()),
		lo:       origins.Lo,
		regionLo: region.Box.Lo,
		sy:       shape[1],
		sz:       shape[2],
		nx:       shape[0],
		pairs:    glcm.PairCount(cfg.ROI, dirs),
	}
	if blocked {
		k := glcm.GetBlocked(cfg.GrayLevels)
		if k.Plan(s.strides, cfg.ROI, dirs, 1, 0) {
			k.PlanRows(s.nx)
			s.blocked = k
		} else {
			glcm.PutBlocked(k)
		}
	}
	if rep == SparseMatrix || rep == FullMatrix && s.blocked != nil {
		s.sparse = glcm.NewSparse(cfg.GrayLevels)
	} else {
		s.full = glcm.NewFull(cfg.GrayLevels)
	}
	return s
}

// release returns the scanner's pooled kernel state; the scanner must not
// be used afterwards.
func (s *rowScanner) release() {
	if s.blocked != nil {
		glcm.PutBlocked(s.blocked)
		s.blocked = nil
	}
}

// scan visits the origins of rows [r0, r1) in raster order. Stats counts
// the pairs each matrix represents, not the accumulations performed — the
// blocked kernel performs far fewer, and that gap is the optimization.
func (s *rowScanner) scan(r0, r1 int, stats *Stats, visit ROIVisitor) error {
	for r := r0; r < r1; r++ {
		p := [4]int{
			s.lo[0],
			s.lo[1] + r%s.sy,
			s.lo[2] + (r/s.sy)%s.sz,
			s.lo[3] + r/(s.sy*s.sz),
		}
		for i := 0; i < s.nx; i++ {
			p[0] = s.lo[0] + i
			rel := [4]int{p[0] - s.regionLo[0], p[1] - s.regionLo[1], p[2] - s.regionLo[2], p[3] - s.regionLo[3]}
			switch {
			case s.blocked != nil:
				// Position on the row's first origin (carrying what the row
				// above left, or one batched pass over all directions), step
				// along x, then a merging snapshot — the non-zero list, or the
				// visitor's dense matrix.
				if i == 0 {
					s.blocked.StartRow(s.data, rel[0]+rel[1]*s.strides[1]+rel[2]*s.strides[2]+rel[3]*s.strides[3])
				} else {
					s.blocked.Step(s.data)
				}
				if s.sparse != nil {
					if !s.keep {
						s.entries = s.entries[:0]
					}
					off := len(s.entries)
					s.entries = s.blocked.AppendSparse(s.entries)
					s.sparse.Entries = s.entries[off:]
					s.sparse.Total = 2 * s.blocked.Pairs()
				} else {
					s.blocked.SnapshotFull(s.full)
				}
			case s.sparse != nil:
				s.sparse.Reset()
				glcm.ComputeSparse(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.sparse)
				if s.keep {
					s.entries = append(s.entries, s.sparse.Entries...)
				}
			default:
				s.full.Reset()
				glcm.ComputeFull(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.full)
			}
			if stats != nil {
				if s.sparse != nil {
					stats.StoredEntries += int64(s.sparse.NonZero())
				} else {
					stats.StoredEntries += int64(s.full.NonZero())
				}
				stats.ROIs++
				stats.Pairs += s.pairs
			}
			if err := visit(p, s.full, s.sparse); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeStats folds per-worker counters into stats (nil-safe).
func mergeStats(stats *Stats, local []Stats) {
	if stats == nil {
		return
	}
	for i := range local {
		stats.ROIs += local[i].ROIs
		stats.Pairs += local[i].Pairs
		stats.StoredEntries += local[i].StoredEntries
	}
}

// AnalyzeRegionInto is AnalyzeRegion writing into caller-provided output
// regions — one per configured feature, each spanning exactly the origin
// box — so callers can pool the float backing across chunks. With an
// effective worker count above one, the ROI raster rows are dealt in grains
// to a worker pool running the blocked kernel's row walk; at one, it runs
// the sequential reference path (ScanRegion), the verification oracle.
func AnalyzeRegionInto(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, out []*volume.FloatRegion) error {
	if region == nil {
		return ErrNilRegion
	}
	if len(out) != len(cfg.Features) {
		return fmt.Errorf("core: %d output regions for %d features", len(out), len(cfg.Features))
	}
	for i, fr := range out {
		if fr == nil || fr.Box != origins || len(fr.Data) != origins.NumVoxels() {
			return fmt.Errorf("core: output region %d does not span origins %v", i, origins)
		}
	}
	zeroSkip := cfg.Representation == FullMatrix
	workers := spanWorkers(cfg, origins)
	if workers <= 1 {
		calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
		idx := 0 // ScanRegion visits the origin box in raster order
		return ScanRegion(region, origins, cfg, stats, func(_ [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
			vals, err := calcValues(calc, full, sparse, zeroSkip)
			if err != nil {
				return err
			}
			for i, v := range vals {
				out[i].Data[idx] = v
			}
			idx++
			return nil
		})
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	nx := origins.Shape()[0]
	local := make([]Stats, workers)
	gs := newGrains(origins, workers)
	err := runGrains(gs, workers, func(w int, take func() (int, bool)) error {
		sc := newRowScanner(region, origins, cfg, cfg.Representation, true)
		defer sc.release()
		calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		// Workers write disjoint elements of the shared backing: a grain's
		// rows are visited in raster order, from its first index on.
		var idx int
		visit := func(_ [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
			vals, err := calcValues(calc, full, sparse, zeroSkip)
			if err != nil {
				return err
			}
			for i, v := range vals {
				out[i].Data[idx] = v
			}
			idx++
			return nil
		}
		for g, ok := take(); ok; g, ok = take() {
			r0, r1 := gs.rows(g)
			idx = r0 * nx
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
	return nil
}

func calcValues(calc *features.Calculator, full *glcm.Full, sparse *glcm.Sparse, zeroSkip bool) ([]float64, error) {
	if sparse != nil {
		return calc.FromSparse(sparse)
	}
	return calc.FromFull(full, zeroSkip)
}

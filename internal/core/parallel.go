package core

import (
	"fmt"
	"runtime"
	"sync"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// This file implements the parallel intra-chunk compute path. The unit of
// work distribution is one ROI raster row (fixed y, z, t — all origins along
// x): rows are split into contiguous blocks, one block per worker, so the
// per-worker results concatenate back into global raster order. Each worker
// owns its own scratch matrix, sparse builder and feature calculator, so the
// hot loop performs no allocation and shares no mutable state. A worker
// walks its rows with the blocked kernel (glcm.Blocked.StartRow/Step), which
// slides the window along x within a row and — on its column path — carries
// per-column pair histograms and gray-level bounds from one row to the row
// below, so only a block's first row and the rows after a z/t wrap are
// rebuilt, and every snapshot scans only the levels present in its ROI. The
// zero-skipping full representation takes the kernel's sorted non-zero list
// straight to the feature sums; only FullMatrixNoSkip and the HCC batches
// materialise a dense matrix. Geometries the blocked planner rejects, and
// KernelLegacy, fall back to the legacy per-direction kernels of package
// glcm, which recompute when the window geometry admits no reuse.
//
// Workers == 1 never enters this file's machinery: it runs the untouched
// sequential kernel (ScanRegion), which remains the verification oracle.
// Because co-occurrence counts are integers and each matrix's features are
// computed independently, the results are bit-identical across worker
// counts.

// EffectiveWorkers resolves the Workers knob to a concrete worker count:
// the knob itself when positive, GOMAXPROCS when zero.
func (c *Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// spanWorkers bounds the effective worker count by the number of ROI raster
// rows in the origin box, the grain of work distribution.
func spanWorkers(cfg *Config, origins volume.Box) int {
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	w := cfg.EffectiveWorkers()
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// blockRange splits n units into parts contiguous blocks and returns the
// half-open range of block i.
func blockRange(n, parts, i int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// runRows executes fn over contiguous row blocks: inline for a single
// worker, on one goroutine per block otherwise. It returns the first
// non-nil error in block order.
func runRows(rows, workers int, fn func(w, r0, r1 int) error) error {
	if workers <= 1 {
		return fn(0, 0, rows)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		r0, r1 := blockRange(rows, workers, w)
		if r0 >= r1 {
			continue
		}
		wg.Add(1)
		go func(w, r0, r1 int) {
			defer wg.Done()
			errs[w] = fn(w, r0, r1)
		}(w, r0, r1)
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
// blocked kernel, or scratch matrix and builder for the legacy kernels.
// Matrices handed to the visitor are reused across calls and must not be
// retained, exactly like ScanRegion — except that with keep set the sparse
// matrices' entries accumulate, in visiting order, in the entries arena, and
// each visited matrix aliases its part of it.
type rowScanner struct {
	cfg      *Config
	dirs     []glcm.Direction
	data     []uint8
	strides  [4]int
	lo       [4]int // origins.Lo
	regionLo [4]int
	sy, sz   int
	nx       int
	slide    bool
	pairs    uint64 // logical pairs per matrix (Total/2)
	full     *glcm.Full
	sparse   *glcm.Sparse
	builder  *glcm.SparseBuilder
	blocked  *glcm.Blocked // non-nil when the blocked kernel is planned
	entries  []glcm.Entry  // sparse entry arena
	keep     bool
}

// newRowScanner builds a scanner for the given scan; rep selects the matrix
// representation (independently of cfg.Representation, because the batch
// builders fix the representation by API): SparseMatrix visits sparse
// matrices, FullMatrixNoSkip dense ones, and FullMatrix — whose consumer
// skips the zeros anyway — the blocked kernel's non-zero list as a sparse
// matrix, falling back to dense ones on the legacy kernels. Features do not
// depend on the representation and Full.NonZero counts a mirror pair once,
// like the list, so the choice is invisible in results and Stats alike.
// Consecutive raster origins are one voxel apart, so the slide stride is
// always 1; the legacy kernels slide whenever some direction's pair box is
// wider than that.
//
// When blocked is set the scanner plans the cache-blocked, direction-batched
// kernel (pooled across chunks via glcm.GetBlocked) for rows of the box's x
// extent — the kernel itself picks the column path or the x-slab slide from
// the geometry; geometries the planner rejects fall back to the legacy
// sliding-window kernels. Callers must release() the scanner when done so
// the pooled scratch is recycled.
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
		slide:    glcm.Reusable(cfg.ROI, 1, dirs),
		pairs:    glcm.PairCount(cfg.ROI, dirs),
	}
	if blocked {
		k := glcm.GetBlocked(cfg.GrayLevels)
		if k.Plan(s.strides, cfg.ROI, dirs, 1, cfg.KernelBlock) {
			k.PlanRows(s.nx)
			s.blocked = k
		} else {
			glcm.PutBlocked(k)
		}
	}
	if rep == SparseMatrix || rep == FullMatrix && s.blocked != nil {
		s.sparse = glcm.NewSparse(cfg.GrayLevels)
		if s.blocked == nil {
			s.builder = glcm.NewSparseBuilder(cfg.GrayLevels)
		}
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
// sliding kernel performs far fewer, and that gap is the optimization.
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
			if s.blocked != nil {
				// Blocked kernel: position on the row's first origin (carrying
				// what the row above left, or one batched pass over all
				// directions), step along x, then a merging snapshot — the
				// non-zero list, or the visitor's dense matrix.
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
					if stats != nil {
						stats.StoredEntries += int64(s.sparse.NonZero())
					}
				} else {
					s.blocked.SnapshotFull(s.full)
					if stats != nil {
						stats.StoredEntries += int64(s.full.NonZero())
					}
				}
			} else if s.sparse != nil {
				if i == 0 || !s.slide {
					s.builder.Clear()
					glcm.ComputeSparseScratch(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.builder)
				} else {
					prev := rel
					prev[0]--
					glcm.SlideSparseScratch(s.data, s.strides, prev, s.cfg.ROI, 1, s.dirs, s.builder)
				}
				s.builder.Snapshot(s.sparse)
				if s.keep {
					s.entries = append(s.entries, s.sparse.Entries...)
				}
				if stats != nil {
					stats.StoredEntries += int64(s.sparse.NonZero())
				}
			} else {
				if i == 0 || !s.slide {
					s.full.Reset()
					glcm.ComputeFull(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.full)
				} else {
					prev := rel
					prev[0]--
					glcm.SlideFull(s.data, s.strides, prev, s.cfg.ROI, 1, s.dirs, s.full)
				}
				if stats != nil {
					stats.StoredEntries += int64(s.full.NonZero())
				}
			}
			if stats != nil {
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
// effective worker count above one, the ROI raster rows are striped across
// a worker pool running the blocked kernel's row walk; at one, it runs the
// sequential reference path (ScanRegion), the verification oracle.
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
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	local := make([]Stats, workers)
	err := runRows(rows, workers, func(w, r0, r1 int) error {
		sc := newRowScanner(region, origins, cfg, cfg.Representation, cfg.useBlocked())
		defer sc.release()
		calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		// Workers write disjoint elements of the shared backing: the scan
		// visits its rows in raster order, from the block's first index on.
		idx := r0 * shape[0]
		return sc.scan(r0, r1, st, func(_ [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
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

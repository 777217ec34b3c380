package glcm

import (
	"math"
	"slices"
	"sync"
)

// This file contains the cache-blocked, direction-batched accumulation
// kernel — the production hot path for parallel scans. It restructures the
// per-direction kernels of compute.go/sliding.go around three ideas the CUDA
// GLCM literature gets its wins from, all of which translate to Go:
//
//   - Direction batching: all canonical directions accumulate into one
//     private scratch per raster pass over the ROI. Each direction's
//     validity along x/y/z/t is a contiguous interval precomputed at plan
//     time, so the accumulation loop is a branch-free interval sweep per
//     direction over an L1-resident ROI, and the incremental slide is
//     compiled into a flat pair program (precomputed offset arrays) with no
//     per-row dispatch at all.
//
//   - Privatized asymmetric scratch: pairs are accumulated into a private
//     dense histogram with a single write per pair — scratch[a·G+c] counts
//     the pair as observed, without the mirror write or the per-pair Total
//     update of Full.Add. The scratch is split into two banks and the hot
//     loops alternate banks between consecutive pairs: smooth images hit
//     the same cell repeatedly, and alternation breaks the resulting
//     store-to-load dependency chain (uint32 addition is mod 2^32, so bank
//     assignment — including transient per-bank underflow during slides —
//     cannot change the merged sum). The symmetric matrix the rest of the
//     system expects is produced once per ROI by a merging snapshot that
//     folds the banks and the two mirror cells together with additive row
//     decoding (no '/' or '%'). The snapshot also derives the sparse entry
//     list directly from the scratch scan, eliminating the touched-key
//     bookkeeping (two data-dependent branches per pair) of SparseBuilder
//     entirely.
//
//   - Quantization lookup table: the row-base product a·G is read from a
//     256-entry LUT filled once per kernel, so the inner loop performs no
//     multiplies. The LUT is exact (mul[v] = v·G), so out-of-range gray
//     levels still panic on the scratch bounds check exactly like the
//     legacy kernels.
//
// Row walks add a structural zero-skip (the paper's own compute result: real
// matrices are ≈ 1 % non-zero): the column path keeps per-x-column pair
// histograms and gray-level bounds, carried from raster row to raster row,
// so that every dense pass and snapshot touches only the window of levels
// present in the ROI (see PlanRows).
//
// The inner loops are written flat over precomputed neighbor strides with
// slice headers re-sliced to a common length so the compiler's bounds-check
// elimination fires for the voxel and LUT loads (verified with
// -gcflags=-d=ssa/check_bce; the scratch store keeps its check because its
// index is data-dependent — same as the legacy kernels). All counts are
// integers, so every snapshot is bit-identical to the legacy kernels'
// output; the sequential workers=1 path never uses this file and remains
// the verification oracle.

// dirPlan is one direction's precomputed geometry: the neighbor offset and
// the valid pair-anchor interval per coordinate (from pairBounds).
type dirPlan struct {
	off    int    // flat offset to the d-neighbor (strides[0] == 1)
	lo, hi [4]int // anchor bounds per coordinate: anchor and neighbor in the ROI
	link   bool   // dx ≠ 0: the pair links two x columns
}

// pairProg is a compiled pair program, grouped by anchor voxel: group gi
// pairs anchor data[base+anchor[gi]] against neighbors data[base+nbr[j]] for
// j in [start[gi], start[gi+1]). A voxel pairs with every direction valid at
// its position, so grouping lets one anchor load and one LUT lookup serve the
// whole direction batch. Built once per Plan, replayed as flat loops — the
// programs touch only tiny slabs, so loop-nest and dispatch overhead would
// otherwise dominate them.
type pairProg struct {
	anchor, start, nbr []int32
}

// compile turns gathered (anchor, neighbor) offset pairs — packed
// anchor<<32|neighbor, both non-negative — into the grouped program form:
// sorted unique anchors, a CSR-style start index, and the flat neighbor
// list. The three slices are rebuilt in place, reusing their capacity.
func (p *pairProg) compile(pk []int64) {
	slices.Sort(pk)
	anchor, start, nbr := p.anchor[:0], p.start[:0], p.nbr[:0]
	prev := int32(-1)
	for _, e := range pk {
		a := int32(e >> 32)
		if a != prev {
			anchor = append(anchor, a)
			start = append(start, int32(len(nbr)))
			prev = a
		}
		nbr = append(nbr, int32(uint32(e)))
	}
	p.anchor, p.start, p.nbr = anchor, append(start, int32(len(nbr))), nbr
}

// replay adds delta — 1, or ^0 for −1 mod 2^32 — to the cell of every pair
// of the program as observed in dd, alternating between the banks c0 and c1
// (which may be the same histogram).
func (p *pairProg) replay(c0, c1 []uint32, mul []uint16, dd []uint8, delta uint32) {
	mul = mul[:256]
	starts, nbrs := p.start, p.nbr
	for gi, a := range p.anchor {
		ma := int(mul[dd[a]])
		grp := nbrs[starts[gi]:starts[gi+1]]
		for len(grp) >= 2 {
			c0[ma+int(dd[grp[0]])] += delta
			c1[ma+int(dd[grp[1]])] += delta
			grp = grp[2:]
		}
		if len(grp) >= 1 {
			c0[ma+int(dd[grp[0]])] += delta
		}
	}
}

// Blocked is the blocked kernel's reusable state: the asymmetric scratch
// histogram and its gray-level window, the multiplication LUT, the per-scan
// direction plan, the compiled slide programs and — for row walks on the
// column path — the per-column pair histograms and level bounds carried from
// raster row to raster row. A Blocked is built for one gray-level count and
// planned for one (strides, ROI shape, direction set, stride) geometry;
// Accumulate/Slide/Snapshot, or StartRow/Step/Snapshot, may then be called
// for any number of ROIs. Values are pooled across chunks via
// GetBlocked/PutBlocked. Not safe for concurrent use — each worker owns one.
type Blocked struct {
	g      int
	counts []uint32 // 2 banks of G×G asymmetric scratch: counts[b*g*g+a*g+c] pairs observed as (a, c)
	mul    []uint16 // mul[v] = v*g, 256 entries ((g-1)*g+255 fits uint16 at g=256)
	pairs  uint64   // pairs currently accumulated (matrix Total is 2·pairs)

	// The gray-level window: every scratch cell with a row or column outside
	// [wlo, whi] is zero in both banks, so the snapshots scan only the window.
	// Accumulate and Slide leave it at [0, G); the column path narrows it to
	// the levels present in the current ROI.
	wlo, whi int

	strides  [4]int
	shape    [4]int
	stride   int // planned slide stride along x
	block    int // x-tile width for accumulation runs; 0 = whole row
	plans    []dirPlan
	roiPairs uint64 // pairs of one ROI, all planned directions

	// The x-slab slide: sub holds the pairs of the departing slab, add those
	// of the entering slab, all offsets relative to the pre-slide origin.
	sub, add pairProg
	pk       []int64 // plan-time pair gathering scratch

	// The column path (see PlanRows); ncol == 0 selects the x-slab walk. A row
	// of nx origins spans ncol = nx + W − 1 slab columns, and slab column c
	// keeps two plain G×G histograms of the pairs as observed over the ROI's
	// y/z/t extent: S[c], the pairs inside the column (dx = 0), and C[c], the
	// pairs linking columns c and c + span (dx = ±span). Both are zero outside
	// the level bounds of the columns they read. col[0] and col[1] are a
	// column's S and C pair programs (offsets relative to the column's flat
	// base): progAll rebuilds a store; moving one voxel down y, progOut
	// (relative to the row above) removes the pairs of the voxel row that leaves
	// the ROI's y extent and progIn adds those of the one that enters.
	span     int // the one non-zero |dx| of the plan; 0 rules the column path out
	col      [2][3]pairProg
	ncol     int
	store    []uint32 // S[c] at (2c)·G², C[c] at (2c+1)·G²
	lev      []uint32 // per slab column, the voxels at each gray level
	clo, chi []uint8  // per slab column, least and greatest level present
	base     int      // flat origin of the current ROI
	rowBase  int      // flat origin of the current row's first ROI
	carried  int      // flat origin of the row every slab column describes; -1 when none
	cont     bool     // the current row continues the carried one
}

const (
	progAll = iota
	progOut
	progIn
)

// NewBlocked returns an unplanned blocked kernel for g gray levels.
func NewBlocked(g int) *Blocked {
	if g < 1 || g > 256 {
		panic("glcm: gray levels must be in [1, 256]")
	}
	k := &Blocked{g: g, counts: make([]uint32, 2*g*g), mul: make([]uint16, 256), whi: g - 1, carried: -1}
	for v := range k.mul {
		k.mul[v] = uint16(v * g)
	}
	return k
}

// G returns the kernel's gray-level count.
func (k *Blocked) G() int { return k.g }

// Pairs returns the number of voxel pairs currently accumulated.
func (k *Blocked) Pairs() uint64 { return k.pairs }

// appendPairs gathers the direction's pairs whose anchor lies in
// [x0, x1) × [y0, y1) and anywhere in the valid z/t range, as packed flat
// offsets relative to the ROI origin.
func (p *dirPlan) appendPairs(pk []int64, strides [4]int, x0, x1, y0, y1 int) []int64 {
	for t := p.lo[3]; t < p.hi[3]; t++ {
		for z := p.lo[2]; z < p.hi[2]; z++ {
			for y := y0; y < y1; y++ {
				row := t*strides[3] + z*strides[2] + y*strides[1]
				for x := x0; x < x1; x++ {
					pk = append(pk, int64(row+x)<<32|int64(row+x+p.off))
				}
			}
		}
	}
	return pk
}

// Plan prepares the kernel for scans of ROIs with the given shape on a grid
// with the given strides, accumulating the given directions, sliding by
// stride voxels along x. block bounds the x extent of each accumulation run
// (0 disables tiling); it only matters for ROIs whose rows outgrow L1. Row
// walks use the x-slab slide until PlanRows says otherwise.
//
// Plan reports whether the geometry is supported: the grid must be laid out
// x-fastest (strides[0] == 1, which every volume/chunk view in this system
// is), the flat voxel offsets must fit the program's int32 entries, and the
// direction set must be no larger than the canonical families (oversized
// sets gain nothing from batching). When it returns false the caller falls
// back to the legacy kernels, which accept anything.
func (k *Blocked) Plan(strides, shape [4]int, dirs []Direction, stride, block int) bool {
	if strides[0] != 1 || stride < 1 || block < 0 || len(dirs) > 64 {
		return false
	}
	k.strides = strides
	k.shape = shape
	k.stride = stride
	k.block = block
	k.ncol, k.carried = 0, -1
	k.plans = k.plans[:0]
	k.roiPairs = 0
	sy, sz, st := strides[1], strides[2], strides[3]
	// The column path needs stride 1 and link pairs of a single x span.
	span, uniform := 0, stride == 1
	for _, d := range dirs {
		lo, hi, ok := pairBounds(shape, d)
		if !ok {
			continue // no valid pairs; direction dropped from the plan
		}
		off := d[0]*strides[0] + d[1]*strides[1] + d[2]*strides[2] + d[3]*strides[3]
		// Every program entry is a flat offset within one ROI extent grown by
		// the stride along x or by one row along y; the extremes bound them.
		if maxFlat := (hi[3]-1)*st + (hi[2]-1)*sz + hi[1]*sy + hi[0] + stride; maxFlat+off > math.MaxInt32 || maxFlat > math.MaxInt32 {
			return false
		}
		if dx := max(d[0], -d[0]); dx != 0 {
			uniform = uniform && (span == 0 || span == dx)
			span = dx
		}
		k.plans = append(k.plans, dirPlan{off: off, lo: lo, hi: hi, link: d[0] != 0})
		k.roiPairs += uint64(hi[0]-lo[0]) * uint64(hi[1]-lo[1]) * uint64(hi[2]-lo[2]) * uint64(hi[3]-lo[3])
	}
	k.span = 0
	if uniform {
		k.span = max(span, 1)
	}
	// Each program is gathered from the directions keep admits, over the
	// anchor box (x and y ranges; z and t are always whole) box returns.
	fits := true
	gather := func(pr *pairProg, keep func(p *dirPlan) bool, box func(p *dirPlan) (x0, x1, y0, y1 int)) {
		pk := k.pk[:0]
		for i := range k.plans {
			if p := &k.plans[i]; keep(p) {
				x0, x1, y0, y1 := box(p)
				pk = p.appendPairs(pk, strides, x0, x1, y0, y1)
			}
		}
		k.pk = pk
		fits = fits && len(pk) <= math.MaxInt32
		pr.compile(pk)
	}
	all := func(*dirPlan) bool { return true }
	gather(&k.sub, all, func(p *dirPlan) (int, int, int, int) {
		subLo, subHi, _, _ := slabX(p.lo[0], p.hi[0], stride)
		return subLo, subHi, p.lo[1], p.hi[1]
	})
	gather(&k.add, all, func(p *dirPlan) (int, int, int, int) {
		_, _, addLo, addHi := slabX(p.lo[0], p.hi[0], stride)
		return addLo, addHi, p.lo[1], p.hi[1]
	})
	if k.span > 0 {
		// A column's pairs have their left-most voxel in it: anchor x = lo[0]
		// (0, or span for dx < 0, whose neighbor is then the column's voxel).
		for which := range k.col {
			progs := &k.col[which]
			keep := func(p *dirPlan) bool { return p.link == (which == 1) }
			gather(&progs[progAll], keep, func(p *dirPlan) (int, int, int, int) { return p.lo[0], p.lo[0] + 1, p.lo[1], p.hi[1] })
			gather(&progs[progOut], keep, func(p *dirPlan) (int, int, int, int) { return p.lo[0], p.lo[0] + 1, p.lo[1], p.lo[1] + 1 })
			gather(&progs[progIn], keep, func(p *dirPlan) (int, int, int, int) { return p.lo[0], p.lo[0] + 1, p.hi[1], p.hi[1] + 1 })
		}
	}
	return fits
}

// Reset discards all accumulated pairs and any carried row. The plan is
// retained.
func (k *Blocked) Reset() {
	clear(k.counts)
	k.pairs = 0
	k.wlo, k.whi = 0, k.g-1
	k.carried = -1
}

// addRun accumulates n consecutive pairs — voxels data[i0:i0+n] against
// neighbors data[j0:j0+n] — into the scratch, one write per pair,
// alternating banks. The slice headers are cut to a common length so the
// voxel and LUT loads are bounds-check free; the scratch store keeps its
// check (data-dependent index), which is also what makes an out-of-range
// gray level panic. Only the tiled accumulation path pays the call — the
// untiled path inlines the same loop.
func (k *Blocked) addRun(data []uint8, i0, j0, n int) {
	av := data[i0 : i0+n]
	cv := data[j0 : j0+n]
	cv = cv[:len(av)]
	gg := k.g * k.g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	mul := k.mul[:256]
	for len(av) >= 2 && len(cv) >= 2 {
		c0[int(mul[av[0]])+int(cv[0])]++
		c1[int(mul[av[1]])+int(cv[1])]++
		av, cv = av[2:], cv[2:]
	}
	if len(av) >= 1 && len(cv) >= 1 {
		c0[int(mul[av[0]])+int(cv[0])]++
	}
}

// Accumulate rasters the ROI at flat offset base once, accumulating every
// planned direction's pairs: per direction, a branch-free interval sweep
// over its valid rows, each row one flat x run against the neighbor stride.
// The ROI rows stay L1-resident across the per-direction sweeps.
func (k *Blocked) Accumulate(data []uint8, base int) {
	k.wlo, k.whi = 0, k.g-1
	sy, sz, st := k.strides[1], k.strides[2], k.strides[3]
	block := k.block
	gg := k.g * k.g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	mul := k.mul[:256]
	for pi := range k.plans {
		p := &k.plans[pi]
		off := p.off
		lo0 := p.lo[0]
		w := p.hi[0] - lo0
		rows := 0
		for t := p.lo[3]; t < p.hi[3]; t++ {
			rt := base + t*st
			for z := p.lo[2]; z < p.hi[2]; z++ {
				rz := rt + z*sz
				for y := p.lo[1]; y < p.hi[1]; y++ {
					i0 := rz + y*sy + lo0
					if block > 0 {
						for x0 := 0; x0 < w; x0 += block {
							k.addRun(data, i0+x0, i0+x0+off, min(block, w-x0))
						}
					} else {
						av := data[i0 : i0+w]
						cv := data[i0+off : i0+off+w]
						cv = cv[:len(av)]
						for len(av) >= 2 && len(cv) >= 2 {
							c0[int(mul[av[0]])+int(cv[0])]++
							c1[int(mul[av[1]])+int(cv[1])]++
							av, cv = av[2:], cv[2:]
						}
						if len(av) >= 1 && len(cv) >= 1 {
							c0[int(mul[av[0]])+int(cv[0])]++
						}
					}
					rows++
				}
			}
		}
		k.pairs += uint64(w) * uint64(rows)
	}
}

// Slide updates the scratch — which must hold the pairs of the ROI at flat
// offset base — to hold the pairs of the ROI slid by the planned stride
// along x, by replaying the compiled pair programs: one grouped loop removes
// the departing slab's pairs, one adds the entering slab's, with each
// group's anchor voxel loaded and LUT-translated once for its whole
// direction batch. The slabs have equal width, so the pair total is
// invariant. Exact integer update: the result is bit-identical to Reset +
// Accumulate at the new origin.
func (k *Blocked) Slide(data []uint8, base int) {
	k.wlo, k.whi = 0, k.g-1
	gg := k.g * k.g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	// Rebase once so the hot loops index the program offsets directly.
	dd := data[base:]
	k.sub.replay(c0, c1, k.mul, dd, ^uint32(0))
	k.add.replay(c0, c1, k.mul, dd, 1)
}

// colBudget bounds the bytes of column histograms one kernel keeps (and the
// pool retains per worker). A row whose columns would not fit walks with the
// x-slab slide.
const colBudget = 4 << 20

// colGain prices the column path's dense work against the scattered
// read-modify-writes of a pair program: the path is taken only when it saves
// more than G×G/colGain of them per ROI. The dense pass and the snapshot scan
// the gray-level window, so their cost follows the data: at the rule's edge
// (BenchmarkRowWalk, table in DESIGN §13) a window that never narrows —
// full-range noise — costs 1.1–1.75× the x-slab walk, where the narrow
// windows of real images gain 2.4–5×; every geometry the rule admits is
// faster than under PR 17's merged columns on either kind of data.
const colGain = 4

// PlanRows chooses how StartRow/Step walk raster rows of nx consecutive
// origins and reports whether the column path was chosen. On it, sliding
// along x is the dense pass scratch += S[i+W] + C[i+W−span] − S[i] − C[i]
// over the gray-level window of the columns involved, and a row directly
// below the previous one (same data, flat origin one y stride further) brings
// each slab column's two stores down one voxel row, once, instead of
// rebuilding anything; any other row rebuilds them. The x-slab slide stays
// the choice when nothing is saved — a stride other than 1 or link pairs of
// more than one x span, a single origin, slide programs no larger than the
// column programs plus the dense pass — or when the row's stores exceed
// colBudget. The choice depends on G, the ROI shape, the direction set and
// the row length only, never on the data.
func (k *Blocked) PlanRows(nx int) bool {
	gg := k.g * k.g
	n := nx + k.shape[0] - 1
	saved := len(k.sub.nbr) + len(k.add.nbr)
	for _, progs := range k.col {
		saved -= len(progs[progOut].nbr) + len(progs[progIn].nbr)
	}
	cols := k.span > 0 && nx >= 2 && 2*n*gg*4 <= colBudget && saved*colGain > gg
	if !cols {
		n = 0
	}
	k.setCols(n)
	return cols
}

// setCols selects the column path for rows of n slab columns (a plan with a
// span only), or the x-slab walk when n is 0.
func (k *Blocked) setCols(n int) {
	k.ncol, k.carried = n, -1
	if need := 2 * n * k.g * k.g; cap(k.store) < need {
		k.store = make([]uint32, need)
		k.lev = make([]uint32, n*k.g)
		k.clo, k.chi = make([]uint8, n), make([]uint8, n)
	}
}

// hist returns slab column c's S (which = 0) or C (which = 1) store, cut to
// exactly G×G so an out-of-range gray level fails the bounds check instead
// of landing in the next store.
func (k *Blocked) hist(c, which int) []uint32 {
	gg := k.g * k.g
	o := (2*c + which) * gg
	return k.store[o : o+gg : o+gg]
}

// enter brings slab column e up to the current row: its level histogram and
// bounds, S[e], and the one link store it completes, C[e−span]. A continued
// row moves each one voxel row down y — only the voxel row that leaves the
// ROI's y extent and the one that enters it take part; any other row rebuilds
// them.
func (k *Blocked) enter(data []uint8, e int) {
	g, sy, sz, st := k.g, k.strides[1], k.strides[2], k.strides[3]
	lev := k.lev[e*g : (e+1)*g : (e+1)*g] // a level ≥ G fails the bounds check
	lo, hi := g-1, 0
	if k.cont {
		lo, hi = int(k.clo[e]), int(k.chi[e])
	} else {
		clear(lev)
	}
	for t := 0; t < k.shape[3]; t++ {
		for z := 0; z < k.shape[2]; z++ {
			p := k.rowBase + e + t*st + z*sz
			y0 := 0
			if k.cont {
				lev[data[p-sy]]--
				y0 = k.shape[1] - 1
			}
			for y := y0; y < k.shape[1]; y++ {
				v := int(data[p+y*sy])
				lev[v]++
				lo, hi = min(lo, v), max(hi, v)
			}
		}
	}
	for lev[lo] == 0 { // the column holds at least one voxel
		lo++
	}
	for lev[hi] == 0 {
		hi--
	}
	k.clo[e], k.chi[e] = uint8(lo), uint8(hi)

	k.bring(0, e, data)
	if e >= k.span {
		k.bring(1, e-k.span, data)
	}
}

// bring updates slab column c's S (which = 0) or C (which = 1) store by the
// column's programs: rebuilt, or carried down from the row above.
func (k *Blocked) bring(which, c int, data []uint8) {
	progs, h, base := &k.col[which], k.hist(c, which), k.rowBase+c
	if k.cont {
		dd := data[base-k.strides[1]:]
		progs[progOut].replay(h, h, k.mul, dd, ^uint32(0))
		progs[progIn].replay(h, h, k.mul, dd, 1)
		return
	}
	clear(h)
	progs[progAll].replay(h, h, k.mul, data[base:], 1)
}

// levelBounds returns the gray-level range of slab columns [c0, c1).
func (k *Blocked) levelBounds(c0, c1 int) (lo, hi int) {
	lo, hi = k.g-1, 0
	for c := c0; c < c1; c++ {
		lo, hi = min(lo, int(k.clo[c])), max(hi, int(k.chi[c]))
	}
	return lo, hi
}

// StartRow positions the kernel on the ROI at flat offset base, the first
// origin of a raster row; Step then advances along x. data must not change
// between rows that are to share work. On the column path the first matrix
// is the windowed sum of the stores of its W columns.
func (k *Blocked) StartRow(data []uint8, base int) {
	k.cont = k.ncol > 0 && k.carried >= 0 && base == k.carried+k.strides[1]
	k.Reset() // drops the carry until the last Step of this row
	k.base, k.rowBase = base, base
	if k.ncol == 0 {
		k.Accumulate(data, base)
		return
	}
	w := k.shape[0]
	for e := 0; e < w; e++ {
		k.enter(data, e)
	}
	k.wlo, k.whi = k.levelBounds(0, w)
	k.pairs = k.roiPairs
	for c := 0; c < w; c++ {
		k.addStore(k.hist(c, 0))
		if c+k.span < w { // else C[c] reaches beyond the ROI
			k.addStore(k.hist(c, 1))
		}
	}
}

// addStore adds the store h to the scratch over the gray-level window.
func (k *Blocked) addStore(h []uint32) {
	g := k.g
	for a := k.wlo; a <= k.whi; a++ {
		m := k.counts[a*g+k.wlo : a*g+k.whi+1]
		hr := h[a*g+k.wlo:][:len(m)]
		for j := range m {
			m[j] += hr[j]
		}
	}
}

// Step advances the kernel from the current ROI to the next origin along x:
// one Slide on the x-slab walk; on the column path, bring the entering slab
// column up to this row and add what the move changes — the entering
// column's stores minus the departing one's — over the level window of the
// W+1 columns involved. Exact integer updates either way: every snapshot is
// bit-identical to Reset + Accumulate at that origin.
func (k *Blocked) Step(data []uint8) {
	if k.ncol == 0 {
		k.Slide(data, k.base)
		k.base += k.stride
		return
	}
	g, w := k.g, k.shape[0]
	i := k.base - k.rowBase
	k.enter(data, i+w)
	k.wlo, k.whi = k.levelBounds(i+1, i+w+1)
	lo, hi := min(k.wlo, int(k.clo[i])), max(k.whi, int(k.chi[i]))
	sIn, cIn, sOut, cOut := k.hist(i+w, 0), k.hist(i+w-k.span, 1), k.hist(i, 0), k.hist(i, 1)
	for a := lo; a <= hi; a++ {
		m := k.counts[a*g+lo : a*g+hi+1]
		si, ci, so, co := sIn[a*g+lo:][:len(m)], cIn[a*g+lo:][:len(m)], sOut[a*g+lo:][:len(m)], cOut[a*g+lo:][:len(m)]
		for j := range m {
			m[j] += si[j] + ci[j] - so[j] - co[j]
		}
	}
	k.base++
	if i+w == k.ncol-1 {
		k.carried = k.rowBase
	}
}

// SnapshotFull merges the asymmetric scratch into m, replacing its contents
// with the symmetric dense matrix: cell (i, j) = scratch(i, j) +
// scratch(j, i) for i ≠ j and 2·scratch(i, i) on the diagonal — exactly the
// counts the mirror-writing kernels would have produced. Row indexes are
// carried additively; the scratch is retained so sliding can continue.
func (k *Blocked) SnapshotFull(m *Full) {
	if m.G != k.g {
		panic("glcm: snapshot into a matrix of different gray-level count")
	}
	g := k.g
	gg := g * g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	out := m.Counts
	lo, hi := k.wlo, k.whi
	if hi-lo+1 < g {
		clear(out) // cells outside the window are zero
	}
	for i, ri := lo, lo*g; i <= hi; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		rowO := out[ri : ri+g]
		rowO[i] = 2 * (r0[i] + r1[i])
		for j, ji := i+1, ri+g+i; j <= hi; j, ji = j+1, ji+g {
			c := r0[j] + r1[j] + c0[ji] + c1[ji]
			rowO[j] = c
			out[ji] = c
		}
	}
	m.Total = 2 * k.pairs
}

// SnapshotSparse extracts the sparse matrix from the scratch, replacing s's
// contents; see AppendSparse.
func (k *Blocked) SnapshotSparse(s *Sparse) {
	s.Reset()
	s.G = k.g
	s.Entries = k.AppendSparse(s.Entries)
	s.Total = 2 * k.pairs
}

// AppendSparse appends the current matrix's sparse entries to dst and
// returns the extended slice (the matrix Total is 2·Pairs()): one
// (i ≤ j)-ordered scan over the scratch emits the non-zero merged cells
// directly, already sorted, with no touched-key tracking or key division.
// Batch builders append matrix after matrix into one arena this way. The
// scratch is retained so sliding can continue.
func (k *Blocked) AppendSparse(dst []Entry) []Entry {
	g := k.g
	gg := g * g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	lo, hi := k.wlo, k.whi
	for i, ri := lo, lo*g; i <= hi; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		if c := r0[i] + r1[i]; c != 0 {
			dst = append(dst, Entry{I: uint8(i), J: uint8(i), Count: 2 * c})
		}
		for j, ji := i+1, ri+g+i; j <= hi; j, ji = j+1, ji+g {
			if c := r0[j] + r1[j] + c0[ji] + c1[ji]; c != 0 {
				dst = append(dst, Entry{I: uint8(i), J: uint8(j), Count: c})
			}
		}
	}
	return dst
}

// blockedPool recycles kernels — and with them the large G×G scratch
// histograms and compiled slide programs — across chunks and workers
// instead of reallocating per scan.
var blockedPool sync.Pool

// GetBlocked returns a pooled kernel for g gray levels (allocating one when
// the pool is empty or holds a kernel of a different size). The kernel's
// scratch is zeroed; Plan must be called before use.
func GetBlocked(g int) *Blocked {
	if v := blockedPool.Get(); v != nil {
		k := v.(*Blocked)
		if k.g == g {
			k.Reset()
			return k
		}
	}
	return NewBlocked(g)
}

// PutBlocked returns a kernel to the pool for reuse.
func PutBlocked(k *Blocked) {
	if k != nil {
		blockedPool.Put(k)
	}
}

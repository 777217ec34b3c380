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
// histogram, the multiplication LUT, the per-scan direction plan, the
// compiled slide programs and — for row walks on the column path — the
// per-column pair histograms carried from raster row to raster row. A
// Blocked is built for one gray-level count and planned for one (strides,
// ROI shape, direction set, stride) geometry; Accumulate/Slide/Snapshot, or
// StartRow/Step/Snapshot, may then be called for any number of ROIs. Values
// are pooled across chunks via GetBlocked/PutBlocked. Not safe for
// concurrent use — each worker owns one.
type Blocked struct {
	g      int
	counts []uint32 // 2 banks of G×G asymmetric scratch: counts[b*g*g+a*g+c] pairs observed as (a, c)
	mul    []uint16 // mul[v] = v*g, 256 entries ((g-1)*g+255 fits uint16 at g=256)
	pairs  uint64   // pairs currently accumulated (matrix Total is 2·pairs)

	strides [4]int
	shape   [4]int
	stride  int // planned slide stride along x
	block   int // x-tile width for accumulation runs; 0 = whole row
	plans   []dirPlan

	// The x-slab slide: sub holds the pairs of the departing slab, add those
	// of the entering slab, all offsets relative to the pre-slide origin.
	sub, add pairProg
	pk       []int64 // plan-time pair gathering scratch

	// The column path (see PlanRows); ncols == 0 selects the x-slab walk.
	// Column i of the current row holds, as one G×G histogram of wrapping
	// counts, what sliding from origin i to origin i+1 changes: the pairs
	// whose right-most voxel lies in the entering x column minus those whose
	// left-most voxel lies in the departing one. inc and dec are the pairs a
	// column gains and loses when its row moves one voxel down y (offsets
	// relative to the column's origin in the row above): only the voxel row
	// that leaves the ROI's y extent and the one that enters it take part.
	inc, dec pairProg
	ncols    int
	cols     []uint32 // ncols histograms of G×G
	first    []uint32 // G×G, one bank: the pairs of the row's first ROI
	base     int      // flat origin of the current ROI
	rowBase  int      // flat origin of the current row's first ROI
	carried  int      // flat origin of the row that first and every column describe; -1 when none
	cont     bool     // the current row continues the carried one
}

// NewBlocked returns an unplanned blocked kernel for g gray levels.
func NewBlocked(g int) *Blocked {
	if g < 1 || g > 256 {
		panic("glcm: gray levels must be in [1, 256]")
	}
	k := &Blocked{g: g, counts: make([]uint32, 2*g*g), mul: make([]uint16, 256), carried: -1}
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
	k.ncols, k.carried = 0, -1
	k.plans = k.plans[:0]
	sy, sz, st := strides[1], strides[2], strides[3]
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
		k.plans = append(k.plans, dirPlan{off: off, lo: lo, hi: hi})
	}
	// The four programs share the gathering scratch, one segment each. At
	// stride 1 a column's departing pairs are the sub slab's (anchor x = lo)
	// and its entering pairs the add slab's (anchor x = hi); moving down y,
	// the voxel row at anchor y = lo leaves and the one at anchor y = hi
	// enters, and a column (entering minus departing pairs) gains what its
	// entering side gains and what its departing side loses.
	pk := k.pk[:0]
	gather := func(box func(p *dirPlan)) (end int) {
		for i := range k.plans {
			box(&k.plans[i])
		}
		return len(pk)
	}
	var end [4]int
	end[0] = gather(func(p *dirPlan) {
		subLo, subHi, _, _ := slabX(p.lo[0], p.hi[0], stride)
		pk = p.appendPairs(pk, strides, subLo, subHi, p.lo[1], p.hi[1])
	})
	end[1] = gather(func(p *dirPlan) {
		_, _, addLo, addHi := slabX(p.lo[0], p.hi[0], stride)
		pk = p.appendPairs(pk, strides, addLo, addHi, p.lo[1], p.hi[1])
	})
	end[2], end[3] = end[1], end[1]
	if stride == 1 { // the column path needs it; see PlanRows
		end[2] = gather(func(p *dirPlan) {
			pk = p.appendPairs(pk, strides, p.lo[0], p.lo[0]+1, p.lo[1], p.lo[1]+1)
			pk = p.appendPairs(pk, strides, p.hi[0], p.hi[0]+1, p.hi[1], p.hi[1]+1)
		})
		end[3] = gather(func(p *dirPlan) {
			pk = p.appendPairs(pk, strides, p.lo[0], p.lo[0]+1, p.hi[1], p.hi[1]+1)
			pk = p.appendPairs(pk, strides, p.hi[0], p.hi[0]+1, p.lo[1], p.lo[1]+1)
		})
	}
	k.pk = pk
	if len(pk) > math.MaxInt32 {
		return false
	}
	k.sub.compile(pk[:end[0]])
	k.add.compile(pk[end[0]:end[1]])
	k.inc.compile(pk[end[1]:end[2]])
	k.dec.compile(pk[end[2]:end[3]])
	return true
}

// Reset discards all accumulated pairs and any carried row. The plan is
// retained.
func (k *Blocked) Reset() {
	clear(k.counts)
	k.pairs = 0
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

// colGain is how many cells of the dense column pass cost as much as one
// scattered read-modify-write of a pair program (measured ≈ 4: the pass
// streams, the program chases data-dependent cells): the column path is
// taken only when it saves more than G×G/colGain scattered updates per ROI.
const colGain = 4

// PlanRows chooses how StartRow/Step walk raster rows of nx consecutive
// origins and reports whether the column path was chosen. On it, sliding
// along x is the dense pass scratch += column over G×G cells, and a row
// directly below the previous one (same data, flat origin one y stride
// further) updates each column by its inc/dec programs and y-slides the
// row's first matrix instead of rebuilding anything; any other row rebuilds
// its columns with the slide programs. The x-slab slide stays the choice
// when nothing is saved — a stride other than 1, a single origin, slide
// programs no larger than the column programs plus the dense pass — or when
// the row's columns exceed colBudget.
func (k *Blocked) PlanRows(nx int) bool {
	gg := k.g * k.g
	saved := len(k.sub.nbr) + len(k.add.nbr) - len(k.inc.nbr) - len(k.dec.nbr)
	cols := k.stride == 1 && nx >= 2 && (nx-1)*gg*4 <= colBudget && saved*colGain > gg
	if !cols {
		nx = 1
	}
	k.setCols(nx - 1)
	return cols
}

// setCols selects the column path with n columns per row (a stride-1 plan
// only), or the x-slab walk when n is 0.
func (k *Blocked) setCols(n int) {
	k.ncols, k.carried = n, -1
	if n == 0 {
		return
	}
	gg := k.g * k.g
	if cap(k.cols) < n*gg {
		k.cols = make([]uint32, n*gg)
	}
	k.cols = k.cols[:n*gg]
	if k.first == nil {
		k.first = make([]uint32, gg)
	}
}

// StartRow positions the kernel on the ROI at flat offset base, the first
// origin of a raster row; Step then advances along x. data must not change
// between rows that are to share work.
func (k *Blocked) StartRow(data []uint8, base int) {
	k.cont = k.ncols > 0 && k.carried >= 0 && base == k.carried+k.strides[1]
	k.carried = -1 // until the last Step of this row
	k.base, k.rowBase = base, base
	gg := k.g * k.g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	if k.cont {
		k.slideFirst(data, base-k.strides[1])
		copy(c0, k.first)
		clear(c1)
		return
	}
	k.Reset()
	k.Accumulate(data, base)
	if k.ncols > 0 {
		first := k.first[:gg]
		for i, c := range c0 {
			first[i] = c + c1[i]
		}
	}
}

// slideFirst moves first — the pairs of the ROI at flat offset base — one
// voxel down y: per direction the anchor row at y = lo leaves and the one at
// y = hi enters, each one x run per z/t.
func (k *Blocked) slideFirst(data []uint8, base int) {
	sy, sz, st := k.strides[1], k.strides[2], k.strides[3]
	first := k.first
	mul := k.mul[:256]
	for pi := range k.plans {
		p := &k.plans[pi]
		w := p.hi[0] - p.lo[0]
		for t := p.lo[3]; t < p.hi[3]; t++ {
			for z := p.lo[2]; z < p.hi[2]; z++ {
				out := base + t*st + z*sz + p.lo[1]*sy + p.lo[0]
				in := out + (p.hi[1]-p.lo[1])*sy
				av, cv := data[out:out+w], data[out+p.off:out+p.off+w]
				for x, a := range av {
					first[int(mul[a])+int(cv[x])]--
				}
				av, cv = data[in:in+w], data[in+p.off:in+p.off+w]
				for x, a := range av {
					first[int(mul[a])+int(cv[x])]++
				}
			}
		}
	}
}

// Step advances the kernel from the current ROI to the next origin along x:
// one Slide on the x-slab walk; on the column path, bring column i up to
// this row (replay inc/dec against the row above, or rebuild it from the
// slide programs) and add it to the scratch. Exact integer updates either
// way: every snapshot is bit-identical to Reset + Accumulate at that origin.
func (k *Blocked) Step(data []uint8) {
	if k.ncols == 0 {
		k.Slide(data, k.base)
		k.base += k.stride
		return
	}
	gg := k.g * k.g
	i := k.base - k.rowBase
	// Cut to exactly G×G so an out-of-range gray level fails the bounds
	// check instead of landing in the next column.
	col := k.cols[i*gg : (i+1)*gg : (i+1)*gg]
	if k.cont {
		dd := data[k.base-k.strides[1]:]
		k.inc.replay(col, col, k.mul, dd, 1)
		k.dec.replay(col, col, k.mul, dd, ^uint32(0))
	} else {
		clear(col)
		dd := data[k.base:]
		k.sub.replay(col, col, k.mul, dd, ^uint32(0))
		k.add.replay(col, col, k.mul, dd, 1)
	}
	m := k.counts[:gg]
	col = col[:len(m)]
	for j := range m {
		m[j] += col[j]
	}
	k.base++
	if i == k.ncols-1 {
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
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		rowO := out[ri : ri+g]
		rowO[i] = 2 * (r0[i] + r1[i])
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
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
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		if c := r0[i] + r1[i]; c != 0 {
			dst = append(dst, Entry{I: uint8(i), J: uint8(i), Count: 2 * c})
		}
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
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

package glcm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// rowWalk is one row-sequence scenario: a grid, an ROI geometry, the first x
// origin and row length, and the (y, z, t) origins of the rows in the order
// they are visited.
type rowWalk struct {
	dims, shape [4]int
	dirs        []Direction
	g, ox, nx   int
	rows        [][3]int
}

// rasterRows lists rows [r0, r1) of the raster over an origin box of
// ny×nz×nt rows starting at (oy, oz, ot) — the block one worker of core's
// row scanner walks, wraps included.
func rasterRows(oy, oz, ot, ny, nz, r0, r1 int) [][3]int {
	var rows [][3]int
	for r := r0; r < r1; r++ {
		rows = append(rows, [3]int{oy + r%ny, oz + (r/ny)%nz, ot + r/(ny*nz)})
	}
	return rows
}

// checkRowWalk drives StartRow/Step over the scenario and checks every
// origin's snapshots against ComputeFull, plus the invariants of arXiv
// 1205.4831: the matrix is symmetric and its entries sum to twice the pair
// count. On the column path every origin also asserts the gray-level window
// (checkWindow). With forceCols the column path is taken whatever the
// planner's cost model says, wherever the plan admits it (stride is 1 here,
// so everywhere but under link pairs of mixed x span).
func checkRowWalk(t *testing.T, tag string, data []uint8, w rowWalk, forceCols bool) {
	t.Helper()
	strides := Strides(w.dims)
	k := GetBlocked(w.g)
	defer PutBlocked(k)
	if !k.Plan(strides, w.shape, w.dirs, 1, 0) {
		t.Fatalf("%s: Plan rejected a supported geometry", tag)
	}
	cols := k.PlanRows(w.nx)
	if forceCols && w.nx >= 2 && k.span > 0 {
		k.setCols(w.nx + w.shape[0] - 1)
		cols = true
	}
	if cols != (k.ncol > 0) {
		t.Fatalf("%s: PlanRows reported %v with %d columns", tag, cols, k.ncol)
	}
	pairs := PairCount(w.shape, w.dirs)
	full := NewFull(w.g)
	arena := []Entry{{I: 1, J: 2, Count: 3}} // must survive every append
	for _, row := range w.rows {
		origin := [4]int{w.ox, row[0], row[1], row[2]}
		for i := 0; i < w.nx; i++ {
			if i == 0 {
				k.StartRow(data, origin[1]*strides[1]+origin[2]*strides[2]+origin[3]*strides[3]+w.ox)
			} else {
				k.Step(data)
			}
			origin[0] = w.ox + i
			want := oracleFull(data, strides, origin, w.shape, w.dirs, w.g)
			k.SnapshotFull(full)
			if full.Total != want.Total || !reflect.DeepEqual(full.Counts, want.Counts) {
				t.Fatalf("%s: dense snapshot at %v diverged from ComputeFull (cols=%v)", tag, origin, cols)
			}
			var sum uint64
			for _, c := range full.Counts {
				sum += uint64(c)
			}
			if !full.Symmetric() || sum != 2*pairs || full.Total != 2*pairs || k.Pairs() != pairs {
				t.Fatalf("%s: snapshot at %v breaks symmetry or the entry sum: Σ=%d total=%d, want %d", tag, origin, sum, full.Total, 2*pairs)
			}
			if cols {
				checkWindow(t, tag, k, data, origin, i)
			}
			off := len(arena)
			arena = k.AppendSparse(arena)
			if got, wantS := arena[off:], want.Sparse().Entries; len(got) != len(wantS) || (len(got) > 0 && !reflect.DeepEqual(got, wantS)) {
				t.Fatalf("%s: sparse entries at %v diverged from the dense oracle", tag, origin)
			}
		}
	}
	if arena[0] != (Entry{I: 1, J: 2, Count: 3}) {
		t.Fatalf("%s: AppendSparse clobbered earlier arena content", tag)
	}
}

// checkWindow asserts, at origin index i of a column-path row, what makes the
// window skip exact: the reported window is the level range of the ROI's W
// slab columns — and tight, the least and greatest level of the ROI's voxels
// — every scratch cell outside it is zero summed over the banks, and every
// store brought up to this row is zero outside the level bounds of the
// columns it reads.
func checkWindow(t *testing.T, tag string, k *Blocked, data []uint8, origin [4]int, i int) {
	t.Helper()
	g, w := k.g, k.shape[0]
	if lo, hi := k.levelBounds(i, i+w); k.wlo != lo || k.whi != hi {
		t.Fatalf("%s: window [%d, %d] at %v is not the columns' level range [%d, %d]", tag, k.wlo, k.whi, origin, lo, hi)
	}
	lo, hi := g, -1
	for n := 0; n < k.shape[0]*k.shape[1]*k.shape[2]*k.shape[3]; n++ {
		off, r := k.base, n
		for d := 0; d < 4; d++ {
			off += r % k.shape[d] * k.strides[d]
			r /= k.shape[d]
		}
		lo, hi = min(lo, int(data[off])), max(hi, int(data[off]))
	}
	if k.wlo != lo || k.whi != hi {
		t.Fatalf("%s: window [%d, %d] at %v, the ROI's levels span [%d, %d]", tag, k.wlo, k.whi, origin, lo, hi)
	}
	outside := func(h []uint32, lo, hi int) bool {
		for a := 0; a < g; a++ {
			for b := 0; b < g; b++ {
				if (a < lo || a > hi || b < lo || b > hi) && h[a*g+b] != 0 {
					return true
				}
			}
		}
		return false
	}
	merged := make([]uint32, g*g)
	for j := range merged {
		merged[j] = k.counts[j] + k.counts[g*g+j]
	}
	if outside(merged, k.wlo, k.whi) {
		t.Fatalf("%s: scratch at %v is non-zero outside the window [%d, %d]", tag, origin, k.wlo, k.whi)
	}
	for c := 0; c < i+w; c++ {
		if lo, hi := k.levelBounds(c, c+1); outside(k.hist(c, 0), lo, hi) {
			t.Fatalf("%s: S[%d] at %v is non-zero outside [%d, %d]", tag, c, origin, lo, hi)
		}
		if c+k.span < i+w {
			lo, hi := k.levelBounds(c, c+1)
			l2, h2 := k.levelBounds(c+k.span, c+k.span+1)
			if outside(k.hist(c, 1), min(lo, l2), max(hi, h2)) {
				t.Fatalf("%s: C[%d] at %v is non-zero outside the bounds of columns %d and %d", tag, c, origin, c, c+k.span)
			}
		}
	}
}

// rowData fills a grid for the window tests: "noise" spans every level,
// "rampx"/"rampy" rise along one axis so the window moves with the origin,
// "outlier" is near-constant with one far voxel that enters and leaves ROIs
// along x and y, "const" is a single level.
func rowData(rng *rand.Rand, kind string, dims [4]int, g int) []uint8 {
	data := randData(rng, dims, g)
	for i := range data {
		x, y := i%dims[0], i/dims[0]%dims[1]
		switch kind {
		case "rampx":
			data[i] = uint8((x*(g-1)/max(dims[0]-1, 1) + int(data[i])%2) % g)
		case "rampy":
			data[i] = uint8((y*(g-1)/max(dims[1]-1, 1) + int(data[i])%2) % g)
		case "outlier":
			data[i] = uint8(g/2 + int(data[i])%2)
		case "const":
			data[i] = uint8(g / 3)
		}
	}
	if kind == "outlier" {
		data[(dims[1]/2)*dims[0]+dims[0]/2] = uint8(g - 1)
	}
	return data
}

// TestBlockedRowsTable walks whole row sequences through both walks for a
// seeded table of geometries: 2–4 dimensions, distance 1–2, every supported
// G class, ROI extents of 1 and 2 (directions with |d| ≥ extent drop out),
// rows of 1, 2 and many origins, and row orders that break continuity.
func TestBlockedRowsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name          string
		dims, shape   [4]int
		ndim, dist, g int
		ox, nx        int
		oy, oz, ot    int
		ny, nz        int
		r0, r1        int
		extra         [][3]int
		data          string      // rowData kind; "" = noise
		dirs          []Direction // overrides Directions(ndim, dist)
	}{
		{name: "2d", dims: [4]int{12, 11, 1, 1}, shape: [4]int{4, 3, 1, 1}, ndim: 2, dist: 1, g: 8, nx: 9, ny: 9, nz: 1, r1: 9},
		{name: "2d-dist2", dims: [4]int{12, 11, 1, 1}, shape: [4]int{5, 4, 1, 1}, ndim: 2, dist: 2, g: 16, ox: 1, nx: 7, oy: 1, ny: 7, nz: 1, r1: 7},
		{name: "3d-wrap", dims: [4]int{10, 8, 5, 1}, shape: [4]int{3, 3, 2, 1}, ndim: 3, dist: 1, g: 32, nx: 8, ny: 6, nz: 4, r1: 24},
		{name: "4d-block", dims: [4]int{9, 7, 4, 4}, shape: [4]int{4, 3, 2, 2}, ndim: 4, dist: 1, g: 32, nx: 6, ny: 5, nz: 3, r0: 7, r1: 38},
		{name: "4d-g256", dims: [4]int{9, 7, 4, 4}, shape: [4]int{4, 3, 2, 2}, ndim: 4, dist: 1, g: 256, nx: 6, ny: 5, nz: 3, r0: 3, r1: 19},
		{name: "extent1-x", dims: [4]int{7, 6, 3, 1}, shape: [4]int{1, 3, 2, 1}, ndim: 3, dist: 1, g: 8, nx: 7, ny: 4, nz: 2, r1: 8},
		{name: "extent1-y", dims: [4]int{7, 6, 3, 1}, shape: [4]int{3, 1, 2, 1}, ndim: 3, dist: 1, g: 8, nx: 5, ny: 6, nz: 2, r1: 12},
		{name: "extent2-dist2", dims: [4]int{8, 7, 3, 3}, shape: [4]int{2, 2, 3, 2}, ndim: 4, dist: 2, g: 16, nx: 7, ny: 6, nz: 1, r1: 12},
		{name: "nx1", dims: [4]int{6, 8, 2, 1}, shape: [4]int{3, 3, 2, 1}, ndim: 3, dist: 1, g: 16, ox: 2, nx: 1, ny: 6, nz: 1, r1: 6},
		{name: "nx2", dims: [4]int{6, 8, 2, 1}, shape: [4]int{3, 3, 2, 1}, ndim: 3, dist: 1, g: 16, ox: 1, nx: 2, ny: 6, nz: 1, r1: 6},
		{name: "rampx", dims: [4]int{14, 9, 3, 1}, shape: [4]int{4, 3, 2, 1}, ndim: 3, dist: 1, g: 32, nx: 11, ny: 7, nz: 2, r1: 14, data: "rampx"},
		{name: "rampy-dist2", dims: [4]int{12, 12, 2, 2}, shape: [4]int{5, 4, 2, 2}, ndim: 4, dist: 2, g: 32, ox: 1, nx: 7, ny: 9, nz: 1, r1: 9, data: "rampy"},
		{name: "outlier", dims: [4]int{13, 11, 1, 1}, shape: [4]int{4, 4, 1, 1}, ndim: 2, dist: 1, g: 256, nx: 10, ny: 8, nz: 1, r1: 8, data: "outlier"},
		{name: "outlier-3d", dims: [4]int{11, 10, 3, 1}, shape: [4]int{3, 3, 2, 1}, ndim: 3, dist: 1, g: 16, nx: 9, ny: 8, nz: 2, r1: 16, data: "outlier"},
		{name: "const", dims: [4]int{9, 8, 2, 2}, shape: [4]int{3, 3, 2, 2}, ndim: 4, dist: 1, g: 8, nx: 7, ny: 6, nz: 1, r1: 6, data: "const"},
		{name: "mixed-dx", dims: [4]int{12, 9, 2, 1}, shape: [4]int{5, 3, 2, 1}, g: 16, nx: 8, ny: 7, nz: 1, r1: 7, data: "rampx",
			dirs: []Direction{{1, 0, 0, 0}, {2, 1, 0, 0}, {0, 1, 1, 0}, {-1, 1, 0, 0}}},
		{name: "neg-dx", dims: [4]int{12, 9, 2, 1}, shape: [4]int{5, 3, 2, 1}, g: 16, nx: 8, ny: 7, nz: 1, r1: 7, data: "rampy",
			dirs: []Direction{{-2, 1, 0, 0}, {2, 0, 1, 0}, {0, 1, 1, 0}, {0, 0, 1, 0}}},
		{name: "jumps", dims: [4]int{10, 9, 3, 2}, shape: [4]int{4, 3, 2, 1}, ndim: 4, dist: 1, g: 32, nx: 7, ny: 7, nz: 2,
			extra: [][3]int{{3, 0, 0}, {4, 0, 0}, {4, 0, 0}, {3, 0, 0}, {5, 1, 1}, {6, 1, 1}, {0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {2, 1, 0}}},
	}
	for _, c := range cases {
		data := rowData(rng, c.data, c.dims, c.g)
		if c.g == 256 && c.data == "" {
			for i := 0; i < len(data)/3; i++ {
				data[rng.Intn(len(data))] = 255 // reach the top cell (255, 255)
			}
		}
		dirs := c.dirs
		if dirs == nil {
			dirs = Directions(c.ndim, c.dist)
		}
		w := rowWalk{dims: c.dims, shape: c.shape, dirs: dirs, g: c.g, ox: c.ox, nx: c.nx,
			rows: append(rasterRows(c.oy, c.oz, c.ot, c.ny, c.nz, c.r0, c.r1), c.extra...)}
		checkRowWalk(t, c.name, data, w, false)
		checkRowWalk(t, c.name+"/cols", data, w, true)
	}
}

// TestBlockedRowsMixedSpan: link pairs of two different x spans rule the
// column path out at plan time — even forced, the walk is x-slab (the table's
// mixed-dx case checks it stays identical) — while a single span of 2, with
// dx of either sign, admits it.
func TestBlockedRowsMixedSpan(t *testing.T) {
	dims, shape := [4]int{12, 9, 2, 1}, [4]int{5, 3, 2, 1}
	k := NewBlocked(16)
	k.Plan(Strides(dims), shape, []Direction{{1, 0, 0, 0}, {2, 1, 0, 0}, {0, 1, 1, 0}}, 1, 0)
	if k.span != 0 || k.PlanRows(8) {
		t.Errorf("mixed |dx| planned the column path (span %d)", k.span)
	}
	k.Plan(Strides(dims), shape, []Direction{{-2, 1, 0, 0}, {2, 0, 1, 0}, {0, 1, 1, 0}}, 1, 0)
	if k.span != 2 {
		t.Errorf("span = %d for dx ∈ {−2, 0, 2}, want 2", k.span)
	}
}

// TestBlockedRowsPaperGeometry pins the paper's configuration on the path
// the planner picks for it — the column path — over a worker-style block of
// rows with a z wrap in the middle.
func TestBlockedRowsPaperGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dims := [4]int{22, 21, 4, 3}
	w := rowWalk{dims: dims, shape: [4]int{16, 16, 3, 3}, dirs: Directions(4, 1), g: 32, nx: 7,
		rows: rasterRows(0, 0, 0, 6, 2, 2, 10)}
	k := NewBlocked(32)
	if !k.Plan(Strides(dims), w.shape, w.dirs, 1, 0) || !k.PlanRows(w.nx) {
		t.Fatal("the planner does not take the column path for the paper geometry")
	}
	checkRowWalk(t, "paper", randData(rng, dims, 32), w, false)
}

// TestBlockedRowsPlanner pins the planner's choices that do not depend on
// the cost constants: x-slab for a single origin, for a stride other than 1,
// and for a row whose column store exceeds the budget (G = 256 is 512 KiB
// per slab column) — and that the over-budget walk stays bit-identical.
func TestBlockedRowsPlanner(t *testing.T) {
	dims := [4]int{40, 18, 4, 4}
	shape := [4]int{16, 16, 3, 3}
	dirs := Directions(4, 1)
	k := NewBlocked(256)
	if !k.Plan(Strides(dims), shape, dirs, 1, 0) {
		t.Fatal("Plan failed")
	}
	if k.PlanRows(1) {
		t.Error("column path chosen for a single-origin row")
	}
	if n := colBudget/(2*4*256*256) + 2; k.PlanRows(n) || k.ncol != 0 {
		t.Errorf("column path chosen for %d origins at G=256, over the %d-byte budget", n, colBudget)
	}
	k.Plan(Strides(dims), shape, dirs, 2, 0)
	if k.PlanRows(4) {
		t.Error("column path chosen for stride 2")
	}
	k32 := NewBlocked(32)
	k32.Plan(Strides(dims), shape, dirs, 1, 0)
	if !k32.PlanRows(25) || k32.PlanRows(1) || k32.ncol != 0 {
		t.Error("planner does not switch per row length on the paper geometry")
	}

	rng := rand.New(rand.NewSource(5))
	data := randData(rng, dims, 256)
	w := rowWalk{dims: dims, shape: shape, dirs: dirs, g: 256, nx: 25, rows: rasterRows(0, 0, 0, 3, 2, 0, 5)}
	if 2*(w.nx+shape[0]-1)*4*256*256 <= colBudget {
		t.Fatal("scenario is not over budget")
	}
	checkRowWalk(t, "over-budget", data, w, false)
}

// TestBlockedRowsGrayOutOfRange: a gray level ≥ G must fail a bounds check
// on the column path too — every store and level histogram is cut to exactly
// its own cells — rather than land in the neighbouring one. The bad voxel
// lies outside the row's first ROI (slab column 3 of a 3-wide ROI) or inside
// it (column 1), so both Step and StartRow meet it, on a rebuilt row and on a
// carried one, and the column that does is never the last of the store.
func TestBlockedRowsGrayOutOfRange(t *testing.T) {
	dims := [4]int{10, 6, 1, 1}
	clean := make([]uint8, 60)
	for i := range clean {
		clean[i] = uint8(i % 8)
	}
	for _, col := range []int{1, 3} {
		for _, carried := range []bool{false, true} {
			k := NewBlocked(8)
			k.Plan(Strides(dims), [4]int{3, 3, 1, 1}, Directions(2, 1), 1, 0)
			k.setCols(7 + 3 - 1)
			d := append([]uint8(nil), clean...)
			base := 0
			if carried {
				k.StartRow(d, 0)
				for i := 0; i < 6; i++ {
					k.Step(d)
				}
				d[col+3*10] = 8 // enters with the next row
				base = 10
			} else {
				d[col] = 8
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("gray level 8 at G=8 in slab column %d did not panic (carried row: %v)", col, carried)
					}
				}()
				k.StartRow(d, base)
				if k.cont != carried {
					t.Fatalf("row continues = %v, want %v", k.cont, carried)
				}
				if col < 3 {
					t.Errorf("StartRow passed a bad voxel in the first ROI")
				}
				for i := 0; i < 6; i++ {
					k.Step(d)
				}
			}()
		}
	}
}

// FuzzBlockedRows fuzzes whole row sequences — geometry, row length, start
// row, a continuity-breaking jump and the data all come from the payload —
// through the planner's walk and the forced column path.
func FuzzBlockedRows(f *testing.F) {
	f.Add([]byte{6, 5, 2, 1, 3, 2, 1, 0, 4, 1, 3, 9, 7, 7}, uint8(2), uint8(4))
	f.Add([]byte{9, 6, 3, 3, 1, 1, 2, 2, 0, 0, 5, 1, 2, 3, 4, 5, 6}, uint8(3), uint8(2))
	f.Add([]byte{4, 8, 1, 1, 2, 3, 0, 0, 1, 2, 0, 250, 251}, uint8(1), uint8(0))
	f.Add([]byte{9, 7, 2, 1, 3, 2, 1, 0, 1, 5, 200, 3, 1, 4}, uint8(2), uint8(18))
	f.Add([]byte{8, 6, 2, 2, 4, 2, 1, 1, 0, 6, 120, 9, 9}, uint8(0), uint8(42))
	f.Fuzz(func(t *testing.T, raw []byte, gsel, dsel uint8) {
		if len(raw) < 11 {
			return
		}
		gs := []int{8, 16, 32, 256}
		g := gs[int(gsel)%len(gs)]
		dims := [4]int{2 + int(raw[0])%9, 2 + int(raw[1])%7, 1 + int(raw[2])%3, 1 + int(raw[3])%3}
		var shape, no [4]int // ROI shape, origins per dimension
		for d := range shape {
			shape[d] = 1 + int(raw[4+d])%dims[d]
			no[d] = dims[d] - shape[d] + 1
		}
		dirs := Directions(2+int(dsel)%3, 1+int(dsel/3)%2)
		if dsel/6%4 == 3 { // a custom set: dx of both signs, sometimes of two spans
			dirs = []Direction{{-1, 1, 0, 0}, {1, 0, 1, 0}, {0, 1, 0, 1}, {1 + int(dsel/24)%2, 0, 0, 0}}
		}
		if PairCount(shape, dirs) == 0 {
			return
		}
		ox := int(raw[8]) % no[0]
		nx := 1 + int(raw[9])%(no[0]-ox)
		nrows := no[1] * no[2] * no[3]
		r0 := int(raw[10]) % nrows
		rows := rasterRows(0, 0, 0, no[1], no[2], r0, nrows)
		rows = append(rows, rasterRows(0, 0, 0, no[1], no[2], 0, r0/2+1)...) // jump back
		data := make([]uint8, dims[0]*dims[1]*dims[2]*dims[3])
		seed := append([]byte{1}, raw[11:]...)
		var h uint64 = 1469598103934665603
		for i := range data {
			h ^= uint64(seed[i%len(seed)]) + uint64(i)
			h *= 1099511628211
			data[i] = uint8(int(h>>56) % g)
			switch x, y := i%dims[0], i/dims[0]%dims[1]; int(raw[10]) / nrows % 4 { // make windows move
			case 1:
				data[i] = uint8((x*(g-1)/(dims[0]-1) + int(data[i])%2) % g)
			case 2:
				data[i] = uint8((y*(g-1)/(dims[1]-1) + int(data[i])%2) % g)
			case 3:
				if data[i] = uint8(g / 2); i == len(data)/2 {
					data[i] = uint8(g - 1)
				}
			}
		}
		w := rowWalk{dims: dims, shape: shape, dirs: dirs, g: g, ox: ox, nx: nx, rows: rows}
		checkRowWalk(t, "fuzz", data, w, false)
		checkRowWalk(t, "fuzz/cols", data, w, true)
	})
}

// BenchmarkRowWalk is the measurement behind colGain: whole raster rows of
// carried (y-continuing) origins through the x-slab walk and the forced
// column path, per ROI shape and G, over full-range noise (every window is
// [0, G): the column path's worst case) and a slow ramp (narrow windows).
// Each origin takes a sparse snapshot, as core's scanner does.
func BenchmarkRowWalk(b *testing.B) {
	shapes := []struct {
		name string
		dims [4]int
		roi  [4]int
		ndim int
	}{
		{"16x16x3x3", [4]int{64, 40, 3, 3}, [4]int{16, 16, 3, 3}, 4},
		{"8x8x2x2", [4]int{64, 40, 2, 2}, [4]int{8, 8, 2, 2}, 4},
		{"4x4x2x2", [4]int{64, 40, 2, 2}, [4]int{4, 4, 2, 2}, 4},
		{"16x16-2d", [4]int{64, 40, 1, 1}, [4]int{16, 16, 1, 1}, 2},
	}
	for _, sh := range shapes {
		for _, g := range []int{8, 16, 32, 64, 128, 256} {
			for _, kind := range []string{"noise", "rampx"} {
				data := rowData(rand.New(rand.NewSource(3)), kind, sh.dims, g)
				strides := Strides(sh.dims)
				nx, ny := sh.dims[0]-sh.roi[0]+1, sh.dims[1]-sh.roi[1]+1
				for _, walk := range []string{"slab", "cols"} {
					k := NewBlocked(g)
					k.Plan(strides, sh.roi, Directions(sh.ndim, 1), 1, 0)
					k.setCols(0)
					if walk == "cols" {
						k.setCols(nx + sh.roi[0] - 1)
					}
					var arena []Entry
					b.Run(fmt.Sprintf("%s/G%d/%s/%s", sh.name, g, kind, walk), func(b *testing.B) {
						for n := 0; n < b.N; n++ {
							for y := 0; y < ny; y++ {
								k.StartRow(data, y*strides[1])
								arena = k.AppendSparse(arena[:0])
								for x := 1; x < nx; x++ {
									k.Step(data)
									arena = k.AppendSparse(arena[:0])
								}
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nx*ny), "ns/ROI")
					})
				}
			}
		}
	}
}

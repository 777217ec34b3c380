package glcm

import (
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
// count. With forceCols the column path is taken whatever the planner's cost
// model says (stride is 1 here, so it is always applicable).
func checkRowWalk(t *testing.T, tag string, data []uint8, w rowWalk, forceCols bool) {
	t.Helper()
	strides := Strides(w.dims)
	k := GetBlocked(w.g)
	defer PutBlocked(k)
	if !k.Plan(strides, w.shape, w.dirs, 1, 0) {
		t.Fatalf("%s: Plan rejected a supported geometry", tag)
	}
	cols := k.PlanRows(w.nx)
	if forceCols && w.nx >= 2 {
		k.setCols(w.nx - 1)
		cols = true
	}
	if cols != (k.ncols > 0) {
		t.Fatalf("%s: PlanRows reported %v with %d columns", tag, cols, k.ncols)
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
		{name: "jumps", dims: [4]int{10, 9, 3, 2}, shape: [4]int{4, 3, 2, 1}, ndim: 4, dist: 1, g: 32, nx: 7, ny: 7, nz: 2,
			extra: [][3]int{{3, 0, 0}, {4, 0, 0}, {4, 0, 0}, {3, 0, 0}, {5, 1, 1}, {6, 1, 1}, {0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {2, 1, 0}}},
	}
	for _, c := range cases {
		data := randData(rng, c.dims, c.g)
		if c.g == 256 {
			for i := 0; i < len(data)/3; i++ {
				data[rng.Intn(len(data))] = 255 // reach the top cell (255, 255)
			}
		}
		w := rowWalk{dims: c.dims, shape: c.shape, dirs: Directions(c.ndim, c.dist), g: c.g, ox: c.ox, nx: c.nx,
			rows: append(rasterRows(c.oy, c.oz, c.ot, c.ny, c.nz, c.r0, c.r1), c.extra...)}
		checkRowWalk(t, c.name, data, w, false)
		checkRowWalk(t, c.name+"/cols", data, w, true)
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
// and for a row whose column store exceeds the budget (G = 256 is 256 KiB
// per column) — and that the over-budget walk stays bit-identical.
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
	if n := colBudget/(4*256*256) + 2; k.PlanRows(n) || k.ncols != 0 {
		t.Errorf("column path chosen for %d origins at G=256, over the %d-byte budget", n, colBudget)
	}
	k.Plan(Strides(dims), shape, dirs, 2, 0)
	if k.PlanRows(4) {
		t.Error("column path chosen for stride 2")
	}
	k32 := NewBlocked(32)
	k32.Plan(Strides(dims), shape, dirs, 1, 0)
	if !k32.PlanRows(25) || k32.PlanRows(1) || k32.ncols != 0 {
		t.Error("planner does not switch per row length on the paper geometry")
	}

	rng := rand.New(rand.NewSource(5))
	data := randData(rng, dims, 256)
	w := rowWalk{dims: dims, shape: shape, dirs: dirs, g: 256, nx: 25, rows: rasterRows(0, 0, 0, 3, 2, 0, 5)}
	if w.nx-1 <= colBudget/(4*256*256) {
		t.Fatal("scenario is not over budget")
	}
	checkRowWalk(t, "over-budget", data, w, false)
}

// TestBlockedRowsGrayOutOfRange: a gray level ≥ G must fail the scratch
// bounds check on the column path too — each column is cut to exactly G×G —
// rather than land in the neighbouring column. The bad voxel (3, ·) lies
// outside the row's first ROI, so only a column update can meet it, and the
// column that does (0 as an entering anchor, 3 as a departing one) is not
// the last of the store.
func TestBlockedRowsGrayOutOfRange(t *testing.T) {
	dims := [4]int{10, 6, 1, 1}
	clean := make([]uint8, 60)
	for i := range clean {
		clean[i] = uint8(i % 8)
	}
	for _, carried := range []bool{false, true} {
		k := NewBlocked(8)
		k.Plan(Strides(dims), [4]int{3, 3, 1, 1}, Directions(2, 1), 1, 0)
		k.setCols(6)
		d := append([]uint8(nil), clean...)
		if carried {
			k.StartRow(d, 0)
			for i := 0; i < 6; i++ {
				k.Step(d)
			}
			d[3+3*10] = 8 // enters with the next row
			k.StartRow(d, 10)
			if !k.cont {
				t.Fatal("row 1 did not continue row 0")
			}
		} else {
			d[3] = 8
			k.StartRow(d, 0)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gray level 8 at G=8 did not panic (carried row: %v)", carried)
				}
			}()
			for i := 0; i < 6; i++ {
				k.Step(d)
			}
		}()
	}
}

// FuzzBlockedRows fuzzes whole row sequences — geometry, row length, start
// row, a continuity-breaking jump and the data all come from the payload —
// through the planner's walk and the forced column path.
func FuzzBlockedRows(f *testing.F) {
	f.Add([]byte{6, 5, 2, 1, 3, 2, 1, 0, 4, 1, 3, 9, 7, 7}, uint8(2), uint8(4))
	f.Add([]byte{9, 6, 3, 3, 1, 1, 2, 2, 0, 0, 5, 1, 2, 3, 4, 5, 6}, uint8(3), uint8(2))
	f.Add([]byte{4, 8, 1, 1, 2, 3, 0, 0, 1, 2, 0, 250, 251}, uint8(1), uint8(0))
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
		}
		w := rowWalk{dims: dims, shape: shape, dirs: dirs, g: g, ox: ox, nx: nx, rows: rows}
		checkRowWalk(t, "fuzz", data, w, false)
		checkRowWalk(t, "fuzz/cols", data, w, true)
	})
}

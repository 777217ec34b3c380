package glcm

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// oracleFull computes the ROI's dense matrix with the sequential reference
// kernel — the bit-exactness baseline for every blocked-kernel test.
func oracleFull(data []uint8, strides [4]int, origin, shape [4]int, dirs []Direction, g int) *Full {
	m := NewFull(g)
	ComputeFull(data, strides, origin, shape, dirs, m)
	return m
}

// checkBlockedRow plans a blocked kernel and walks a full raster row of ROI
// origins (accumulate at the row start, slide afterwards), checking every
// position's dense and sparse snapshots against the oracle kernels.
func checkBlockedRow(t *testing.T, tag string, data []uint8, dims [4]int, origin, shape [4]int, dirs []Direction, g, stride, block int) {
	t.Helper()
	strides := Strides(dims)
	k := GetBlocked(g)
	defer PutBlocked(k)
	if !k.Plan(strides, shape, dirs, stride, block) {
		t.Fatalf("%s: Plan rejected a supported geometry", tag)
	}
	full := NewFull(g)
	sparse := NewSparse(g)
	wantSparse := NewSparse(g)
	for first := true; origin[0]+shape[0] <= dims[0]; origin[0] += stride {
		base := origin[0]*strides[0] + origin[1]*strides[1] + origin[2]*strides[2] + origin[3]*strides[3]
		if first {
			k.Reset()
			k.Accumulate(data, base)
			first = false
		} else {
			k.Slide(data, base-stride*strides[0])
		}
		want := oracleFull(data, strides, origin, shape, dirs, g)
		k.SnapshotFull(full)
		if full.Total != want.Total || !reflect.DeepEqual(full.Counts, want.Counts) {
			t.Fatalf("%s: dense snapshot at %v diverged from ComputeFull (total %d vs %d)", tag, origin, full.Total, want.Total)
		}
		if k.Pairs()*2 != want.Total {
			t.Fatalf("%s: kernel pair count %d inconsistent with oracle total %d", tag, k.Pairs(), want.Total)
		}
		k.SnapshotSparse(sparse)
		if err := sparse.Validate(); err != nil {
			t.Fatalf("%s: sparse snapshot at %v invalid: %v", tag, origin, err)
		}
		wantSparse.Reset()
		ComputeSparse(data, strides, origin, shape, dirs, wantSparse)
		if sparse.Total != wantSparse.Total || !reflect.DeepEqual(sparse.Entries, wantSparse.Entries) {
			t.Fatalf("%s: sparse snapshot at %v diverged from ComputeSparse", tag, origin)
		}
	}
}

// TestBlockedMatchesOracleProperty drives the blocked kernel over random
// geometries — every gray-level count the system supports including the
// G=256 edge, direction sets of 2–4 dimensions at distances 1 and 2, random
// ROI shapes and slide strides — and requires bit-identical matrices at
// every raster position.
func TestBlockedMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gs := []int{8, 16, 32, 256}
	for iter := 0; iter < 80; iter++ {
		g := gs[iter%len(gs)]
		ndim := 2 + rng.Intn(3)
		distance := 1 + rng.Intn(2)
		dirs := Directions(ndim, distance)
		dims := [4]int{5 + rng.Intn(12), 3 + rng.Intn(6), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		data := randomGrid(rng, dims, g)
		if g == 256 {
			// Touch the top gray level so the packed uint16 key i*g+j can
			// reach its maximum value 65535 (i = j = 255).
			for i := 0; i < len(data)/3; i++ {
				data[rng.Intn(len(data))] = 255
			}
		}
		shape := [4]int{
			1 + rng.Intn(dims[0]),
			1 + rng.Intn(dims[1]),
			1 + rng.Intn(dims[2]),
			1 + rng.Intn(dims[3]),
		}
		if PairCount(shape, dirs) == 0 {
			continue
		}
		origin := [4]int{
			0,
			rng.Intn(dims[1] - shape[1] + 1),
			rng.Intn(dims[2] - shape[2] + 1),
			rng.Intn(dims[3] - shape[3] + 1),
		}
		stride := 1 + rng.Intn(2)
		block := rng.Intn(3) * 2 // 0 (untiled), 2 or 4
		checkBlockedRow(t, "property", data, dims, origin, shape, dirs, g, stride, block)
	}
}

// TestBlockedPaperGeometry pins the paper's exact configuration: 16×16×3×3
// ROI, G=32, all 40 canonical 4D directions at distance 1, slide stride 1.
func TestBlockedPaperGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := [4]int{24, 20, 4, 4}
	data := randomGrid(rng, dims, 32)
	checkBlockedRow(t, "paper", data, dims, [4]int{0, 1, 0, 1}, [4]int{16, 16, 3, 3}, Directions(4, 1), 32, 1, 0)
}

// TestBlockedPlanFallback covers the geometries Plan must refuse: y-fastest
// strides, a non-positive stride and direction sets that overflow the 64-bit
// row masks. Refusal routes the scan to the oracle kernels, ComputeFull and
// ComputeSparse.
func TestBlockedPlanFallback(t *testing.T) {
	k := NewBlocked(16)
	dims := [4]int{8, 8, 2, 2}
	shape := [4]int{4, 4, 2, 2}
	if k.Plan([4]int{8, 1, 64, 128}, shape, Directions(2, 1), 1, 0) {
		t.Error("Plan accepted a grid that is not x-fastest")
	}
	if k.Plan(Strides(dims), shape, Directions(2, 1), 0, 0) {
		t.Error("Plan accepted stride 0")
	}
	if k.Plan(Strides(dims), shape, Directions(2, 1), 1, -1) {
		t.Error("Plan accepted a negative block")
	}
	wide := AllDirections(4, 1) // 80 directions > 64 mask bits
	if k.Plan(Strides(dims), shape, wide, 1, 0) {
		t.Error("Plan accepted a direction set wider than the row masks")
	}
	if !k.Plan(Strides(dims), shape, Directions(4, 1), 1, 0) {
		t.Error("Plan rejected the canonical 40-direction set")
	}
}

// TestBlockedPoolReuse checks that pooled kernels come back zeroed and that
// a gray-level mismatch allocates a fresh kernel instead of corrupting the
// scratch size.
func TestBlockedPoolReuse(t *testing.T) {
	k := GetBlocked(16)
	dims := [4]int{6, 4, 1, 1}
	data := make([]uint8, 24)
	for i := range data {
		data[i] = uint8(i % 16)
	}
	if !k.Plan(Strides(dims), [4]int{3, 2, 1, 1}, Directions(2, 1), 1, 0) {
		t.Fatal("Plan failed")
	}
	k.Accumulate(data, 0)
	if k.Pairs() == 0 {
		t.Fatal("accumulate recorded no pairs")
	}
	PutBlocked(k)
	k2 := GetBlocked(16)
	if k2.Pairs() != 0 {
		t.Error("pooled kernel not reset")
	}
	for _, c := range k2.counts {
		if c != 0 {
			t.Error("pooled kernel scratch not zeroed")
			break
		}
	}
	PutBlocked(k2)
	k3 := GetBlocked(256)
	if k3.G() != 256 || len(k3.counts) != 2*256*256 {
		t.Errorf("pool returned a kernel of the wrong size: g=%d len=%d", k3.G(), len(k3.counts))
	}
	PutBlocked(k3)
}

// TestBuilderMaxKeyG256 pins the G=256 edge of the sparse builder, Sparse.Add,
// which the oracle kernel ComputeSparse accumulates through: the packed uint16
// sort key of the (255, 255) cell is exactly 65535, the type's maximum value,
// and a matrix holding every one of the 32896 upper-triangle cells keeps its
// uint16 index positions in range. The blocked kernel's sparse snapshot of a
// grid touching both ends of the gray range must agree with it.
func TestBuilderMaxKeyG256(t *testing.T) {
	s := NewSparse(256)
	s.Add(255, 255)
	s.Add(255, 255)
	s.Add(0, 255)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.At(255, 255); got != 4 {
		t.Errorf("cell (255,255) = %d, want 4", got)
	}
	if got := s.At(0, 255); got != 1 {
		t.Errorf("cell (0,255) = %d, want 1", got)
	}

	s.Reset()
	for i := 0; i < 256; i++ {
		for j := i; j < 256; j++ {
			s.Add(uint8(j), uint8(i))
		}
	}
	s.Add(255, 255)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := s.NonZero(); n != 256*257/2 {
		t.Fatalf("%d entries, want every upper-triangle cell (%d)", n, 256*257/2)
	}
	if got := s.At(255, 255); got != 4 {
		t.Errorf("full matrix: cell (255,255) = %d, want 4", got)
	}
	if got := s.At(255, 0); got != 1 {
		t.Errorf("full matrix: cell (255,0) = %d, want 1", got)
	}

	dims := [4]int{6, 3, 1, 1}
	data := []uint8{
		255, 255, 0, 255, 255, 255,
		0, 255, 255, 255, 0, 255,
		255, 255, 255, 0, 255, 255,
	}
	checkBlockedRow(t, "g256", data, dims, [4]int{}, [4]int{3, 3, 1, 1}, Directions(2, 1), 256, 1, 0)
	want := NewSparse(256)
	ComputeSparse(data, Strides(dims), [4]int{}, [4]int{3, 3, 1, 1}, Directions(2, 1), want)
	if want.At(255, 255) == 0 || want.At(0, 255) == 0 {
		t.Errorf("the grid did not reach the (255,255) and (0,255) cells: %+v", want.Entries)
	}
}

// FuzzBlockedKernel fuzzes the blocked kernel against the dense oracle:
// arbitrary bytes pick the geometry and fill the grid, and every raster
// position's snapshot must match ComputeFull bit for bit.
func FuzzBlockedKernel(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 2, 2, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(3), uint8(1))
	f.Add([]byte{16, 4, 2, 2, 1, 1, 1, 1, 9, 9, 9}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, gsel, dsel uint8) {
		if len(raw) < 8 {
			return
		}
		gs := []int{8, 16, 32, 256}
		g := gs[int(gsel)%len(gs)]
		dims := [4]int{2 + int(raw[0])%8, 2 + int(raw[1])%5, 1 + int(raw[2])%3, 1 + int(raw[3])%3}
		shape := [4]int{
			1 + int(raw[4])%dims[0],
			1 + int(raw[5])%dims[1],
			1 + int(raw[6])%dims[2],
			1 + int(raw[7])%dims[3],
		}
		ndim := 2 + int(dsel)%3
		distance := 1 + int(dsel/3)%2
		dirs := Directions(ndim, distance)
		if PairCount(shape, dirs) == 0 {
			return
		}
		n := dims[0] * dims[1] * dims[2] * dims[3]
		data := make([]uint8, n)
		seed := raw[8:]
		if len(seed) == 0 {
			seed = []byte{1}
		}
		// Deterministic fill from the fuzz payload, clamped to the gray range.
		var h uint64 = 1469598103934665603
		for i := range data {
			h ^= uint64(seed[i%len(seed)]) + uint64(i)
			h *= 1099511628211
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], h)
			data[i] = uint8(int(buf[0]) % g)
		}
		checkBlockedRow(t, "fuzz", data, dims, [4]int{}, shape, dirs, g, 1, int(raw[0])%3)
	})
}

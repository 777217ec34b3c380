package volume

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestIndexAndStrides(t *testing.T) {
	dims := [4]int{4, 5, 6, 7}
	s := Strides(dims)
	if s != [4]int{1, 4, 20, 120} {
		t.Fatalf("Strides = %v", s)
	}
	if Index(dims, 1, 2, 3, 4) != 1+2*4+3*20+4*120 {
		t.Error("Index mismatch")
	}
	if NumVoxels(dims) != 4*5*6*7 {
		t.Error("NumVoxels mismatch")
	}
}

func TestVolumeAccessors(t *testing.T) {
	v := NewVolume([4]int{3, 3, 2, 2})
	v.Set(1, 2, 1, 0, 777)
	if v.At(1, 2, 1, 0) != 777 {
		t.Error("Set/At mismatch")
	}
	sl := v.Slice(1, 0)
	if len(sl) != 9 {
		t.Fatalf("slice length %d", len(sl))
	}
	if sl[1+2*3] != 777 {
		t.Error("Slice view does not alias volume data")
	}
	lo, hi := v.MinMax()
	if lo != 0 || hi != 777 {
		t.Errorf("MinMax = %d, %d", lo, hi)
	}
}

func TestQuantizeValue(t *testing.T) {
	// Full 16-bit range onto 32 levels.
	if QuantizeValue(0, 32, 0, 65535) != 0 {
		t.Error("min should map to 0")
	}
	if QuantizeValue(65535, 32, 0, 65535) != 31 {
		t.Error("max should map to G-1")
	}
	// Degenerate range.
	if QuantizeValue(123, 32, 50, 50) != 0 {
		t.Error("degenerate range should map to 0")
	}
	// Clamping.
	if QuantizeValue(10, 32, 100, 200) != 0 || QuantizeValue(250, 32, 100, 200) != 31 {
		t.Error("clamping failed")
	}
}

// Property: quantization is monotone and always lands in [0, G−1].
func TestQuantizeMonotoneProperty(t *testing.T) {
	f := func(a, b uint16, gRaw uint8) bool {
		g := int(gRaw%255) + 2
		lo, hi := uint16(100), uint16(60000)
		qa := QuantizeValue(a, g, lo, hi)
		qb := QuantizeValue(b, g, lo, hi)
		if int(qa) >= g || int(qb) >= g {
			return false
		}
		if a <= b {
			return qa <= qb
		}
		return qa >= qb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRequantize(t *testing.T) {
	v := NewVolume([4]int{2, 2, 1, 1})
	v.Data = []uint16{10, 20, 30, 40}
	g := Requantize(v, 4)
	if g.Data[0] != 0 {
		t.Errorf("min voxel level = %d, want 0", g.Data[0])
	}
	if g.Data[3] != 3 {
		t.Errorf("max voxel level = %d, want 3", g.Data[3])
	}
	for _, lv := range g.Data {
		if int(lv) >= 4 {
			t.Errorf("level %d out of range", lv)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := BoxAt([4]int{1, 2, 3, 4}, [4]int{2, 2, 2, 2})
	if b.Shape() != [4]int{2, 2, 2, 2} || b.NumVoxels() != 16 || b.Empty() {
		t.Error("BoxAt geometry wrong")
	}
	if !b.Contains([4]int{1, 2, 3, 4}) || b.Contains([4]int{3, 2, 3, 4}) {
		t.Error("Contains wrong")
	}
	inter, ok := b.Intersect(BoxAt([4]int{2, 3, 4, 5}, [4]int{5, 5, 5, 5}))
	if !ok || inter.Shape() != [4]int{1, 1, 1, 1} {
		t.Errorf("Intersect = %v, %v", inter, ok)
	}
	if _, ok := b.Intersect(BoxAt([4]int{10, 10, 10, 10}, [4]int{1, 1, 1, 1})); ok {
		t.Error("disjoint boxes intersected")
	}
	if !b.ContainsBox(inter) || inter.ContainsBox(b) {
		t.Error("ContainsBox wrong")
	}
	if b.String() == "" {
		t.Error("empty String")
	}
}

func TestRegionCopyFrom(t *testing.T) {
	src := NewRegion(BoxAt([4]int{0, 0, 0, 0}, [4]int{4, 4, 1, 1}))
	for i := range src.Data {
		src.Data[i] = uint8(i)
	}
	dst := NewRegion(BoxAt([4]int{2, 2, 0, 0}, [4]int{4, 4, 1, 1}))
	n := dst.CopyFrom(src)
	if n != 4 {
		t.Fatalf("copied %d voxels, want 4", n)
	}
	// The overlap is x,y in [2,4): src values at (2,2),(3,2),(2,3),(3,3).
	for _, p := range [][4]int{{2, 2, 0, 0}, {3, 2, 0, 0}, {2, 3, 0, 0}, {3, 3, 0, 0}} {
		if dst.At(p) != src.At(p) {
			t.Errorf("dst%v = %d, want %d", p, dst.At(p), src.At(p))
		}
	}
	// Disjoint copy is a no-op.
	far := NewRegion(BoxAt([4]int{10, 10, 0, 0}, [4]int{2, 2, 1, 1}))
	if far.CopyFrom(src) != 0 {
		t.Error("disjoint CopyFrom copied voxels")
	}
}

func TestExtractRegion(t *testing.T) {
	g := NewGrid([4]int{4, 4, 2, 2}, 16)
	for i := range g.Data {
		g.Data[i] = uint8(i % 16)
	}
	b := BoxAt([4]int{1, 1, 0, 1}, [4]int{2, 2, 2, 1})
	r := ExtractRegion(g, b)
	var p [4]int
	for p[3] = b.Lo[3]; p[3] < b.Hi[3]; p[3]++ {
		for p[2] = b.Lo[2]; p[2] < b.Hi[2]; p[2]++ {
			for p[1] = b.Lo[1]; p[1] < b.Hi[1]; p[1]++ {
				for p[0] = b.Lo[0]; p[0] < b.Hi[0]; p[0]++ {
					if r.At(p) != g.At(p[0], p[1], p[2], p[3]) {
						t.Fatalf("mismatch at %v", p)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExtractRegion should panic for out-of-grid box")
		}
	}()
	ExtractRegion(g, BoxAt([4]int{3, 3, 0, 0}, [4]int{4, 4, 1, 1}))
}

func TestFloatRegionStoreInto(t *testing.T) {
	fg := NewFloatGrid([4]int{4, 4, 1, 1})
	fr := NewFloatRegion(BoxAt([4]int{1, 1, 0, 0}, [4]int{2, 2, 1, 1}))
	fr.Set([4]int{1, 1, 0, 0}, 3.5)
	fr.Set([4]int{2, 2, 0, 0}, -1.25)
	fr.StoreInto(fg)
	if fg.At(1, 1, 0, 0) != 3.5 || fg.At(2, 2, 0, 0) != -1.25 {
		t.Error("StoreInto values wrong")
	}
	lo, hi := fg.MinMax()
	if lo != -1.25 || hi != 3.5 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	// A region sticking out of the grid on every axis stores only the
	// overlap, each voxel at its absolute position.
	dims := [4]int{5, 4, 3, 3}
	fg = NewFloatGrid(dims)
	fr = NewFloatRegion(BoxAt([4]int{2, -1, 1, -2}, [4]int{4, 3, 3, 4}))
	for i := range fr.Data {
		fr.Data[i] = float64(i + 1)
	}
	fr.StoreInto(fg)
	inter, _ := BoxAt([4]int{}, dims).Intersect(fr.Box)
	var p [4]int
	for p[3] = 0; p[3] < dims[3]; p[3]++ {
		for p[2] = 0; p[2] < dims[2]; p[2]++ {
			for p[1] = 0; p[1] < dims[1]; p[1]++ {
				for p[0] = 0; p[0] < dims[0]; p[0]++ {
					want := 0.0
					if inter.Contains(p) {
						want = fr.At(p)
					}
					if got := fg.At(p[0], p[1], p[2], p[3]); got != want {
						t.Fatalf("grid %v = %v, want %v", p, got, want)
					}
				}
			}
		}
	}
}

func TestOutputDims(t *testing.T) {
	out, err := OutputDims([4]int{256, 256, 32, 32}, [4]int{16, 16, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out != [4]int{241, 241, 30, 30} {
		t.Errorf("OutputDims = %v", out)
	}
	if _, err := OutputDims([4]int{4, 4, 1, 1}, [4]int{5, 1, 1, 1}); err == nil {
		t.Error("oversized ROI accepted")
	}
	if _, err := OutputDims([4]int{4, 4, 1, 1}, [4]int{0, 1, 1, 1}); err == nil {
		t.Error("zero ROI accepted")
	}
}

func TestChunkerGeometry(t *testing.T) {
	dims := [4]int{16, 16, 8, 8}
	roi := [4]int{4, 4, 3, 3}
	chunkShape := [4]int{8, 8, 4, 4}
	c, err := NewChunker(dims, chunkShape, roi)
	if err != nil {
		t.Fatal(err)
	}
	if c.Overlap() != [4]int{3, 3, 2, 2} {
		t.Errorf("Overlap = %v", c.Overlap())
	}
	outDims, _ := OutputDims(dims, roi)
	if c.OutputDims() != outDims {
		t.Errorf("OutputDims = %v, want %v", c.OutputDims(), outDims)
	}

	// Every chunk's voxel box must fit in the dataset and equal the origin
	// box plus the ROI halo.
	dsBox := BoxAt([4]int{}, dims)
	for _, ch := range c.Chunks() {
		if !dsBox.ContainsBox(ch.Voxels) {
			t.Fatalf("chunk %d voxels %v outside dataset", ch.Index, ch.Voxels)
		}
		for k := 0; k < 4; k++ {
			if ch.Voxels.Hi[k] != ch.Origins.Hi[k]+roi[k]-1 {
				t.Fatalf("chunk %d halo wrong in dim %d", ch.Index, k)
			}
		}
	}
}

// TestChunkerTilingProperty enumerates chunk plans instead of sampling
// them: along each axis in turn, every dataset extent 1..10, every ROI extent
// up to it and every chunk extent from the ROI's to the dataset's (220
// geometries per axis, 880 in all), the other three axes fixed at a 3-voxel
// extent, a 2-voxel ROI and 2-voxel chunks. In each plan every ROI origin is
// owned by exactly one chunk and OwnerOf agrees, and every chunk's voxel box
// lies in the dataset and is its origin box plus the ROI − 1 halo.
func TestChunkerTilingProperty(t *testing.T) {
	plans := 0
	for axis := 0; axis < 4; axis++ {
		for dim := 1; dim <= 10; dim++ {
			for r := 1; r <= dim; r++ {
				for cs := r; cs <= dim; cs++ {
					dims, roi, chunk := [4]int{3, 3, 3, 3}, [4]int{2, 2, 2, 2}, [4]int{2, 2, 2, 2}
					dims[axis], roi[axis], chunk[axis] = dim, r, cs
					checkTiling(t, dims, chunk, roi)
					plans++
				}
			}
		}
	}
	if plans != 880 {
		t.Errorf("enumerated %d plans, want 880", plans)
	}
}

func checkTiling(t *testing.T, dims, chunk, roi [4]int) {
	t.Helper()
	c, err := NewChunker(dims, chunk, roi)
	if err != nil {
		t.Fatalf("dims %v chunk %v ROI %v: %v", dims, chunk, roi, err)
	}
	dataset := BoxAt([4]int{}, dims)
	owned := make(map[[4]int]bool)
	for _, ch := range c.Chunks() {
		tag := fmt.Sprintf("dims %v chunk %v ROI %v: chunk %d", dims, chunk, roi, ch.Index)
		if !dataset.ContainsBox(ch.Voxels) {
			t.Fatalf("%s: voxels %v outside the dataset", tag, ch.Voxels)
		}
		for k := 0; k < 4; k++ {
			if ch.Origins.Lo[k] >= ch.Origins.Hi[k] {
				t.Fatalf("%s: empty origin box %v", tag, ch.Origins)
			}
			if ch.Voxels.Lo[k] != ch.Origins.Lo[k] || ch.Voxels.Hi[k] != ch.Origins.Hi[k]+roi[k]-1 {
				t.Fatalf("%s: voxels %v are not origins %v plus the ROI - 1 halo", tag, ch.Voxels, ch.Origins)
			}
		}
		var p [4]int
		for p[3] = ch.Origins.Lo[3]; p[3] < ch.Origins.Hi[3]; p[3]++ {
			for p[2] = ch.Origins.Lo[2]; p[2] < ch.Origins.Hi[2]; p[2]++ {
				for p[1] = ch.Origins.Lo[1]; p[1] < ch.Origins.Hi[1]; p[1]++ {
					for p[0] = ch.Origins.Lo[0]; p[0] < ch.Origins.Hi[0]; p[0]++ {
						if owned[p] {
							t.Fatalf("%s: origin %v owned twice", tag, p)
						}
						owned[p] = true
						if o := c.OwnerOf(p); o != ch.Index {
							t.Fatalf("%s: OwnerOf(%v) = %d", tag, p, o)
						}
					}
				}
			}
		}
	}
	if out := c.OutputDims(); len(owned) != NumVoxels(out) {
		t.Fatalf("dims %v chunk %v ROI %v: %d origins owned, want %d", dims, chunk, roi, len(owned), NumVoxels(out))
	}
}

func TestChunkerErrors(t *testing.T) {
	if _, err := NewChunker([4]int{8, 8, 1, 1}, [4]int{2, 8, 1, 1}, [4]int{4, 4, 1, 1}); err == nil {
		t.Error("chunk smaller than ROI accepted")
	}
	if _, err := NewChunker([4]int{8, 8, 1, 1}, [4]int{9, 8, 1, 1}, [4]int{4, 4, 1, 1}); err == nil {
		t.Error("chunk larger than dataset accepted")
	}
}

func TestChunkIndexRoundTrip(t *testing.T) {
	c, err := NewChunker([4]int{20, 20, 6, 6}, [4]int{8, 8, 4, 4}, [4]int{3, 3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Count(); i++ {
		if c.Chunk(i).Index != i {
			t.Fatalf("chunk %d reports index %d", i, c.Chunk(i).Index)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range chunk index should panic")
		}
	}()
	c.Chunk(c.Count())
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewVolume([4]int{0, 1, 1, 1}) },
		func() { NewGrid([4]int{1, 1, 1, 1}, 0) },
		func() { NewFloatGrid([4]int{1, -1, 1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

package volume

import "fmt"

// Box is a half-open 4D axis-aligned box: the voxels p with
// Lo[k] ≤ p[k] < Hi[k] for every dimension k.
type Box struct {
	Lo, Hi [4]int
}

// BoxAt returns the box with the given origin and shape.
func BoxAt(origin, shape [4]int) Box {
	var b Box
	for k := 0; k < 4; k++ {
		b.Lo[k] = origin[k]
		b.Hi[k] = origin[k] + shape[k]
	}
	return b
}

// Shape returns the box's extent along each dimension (never negative).
func (b Box) Shape() [4]int {
	var s [4]int
	for k := 0; k < 4; k++ {
		s[k] = b.Hi[k] - b.Lo[k]
		if s[k] < 0 {
			s[k] = 0
		}
	}
	return s
}

// NumVoxels returns the number of voxels in the box.
func (b Box) NumVoxels() int { return NumVoxels(b.Shape()) }

// Empty reports whether the box contains no voxels.
func (b Box) Empty() bool {
	for k := 0; k < 4; k++ {
		if b.Hi[k] <= b.Lo[k] {
			return true
		}
	}
	return false
}

// Contains reports whether point p lies inside the box.
func (b Box) Contains(p [4]int) bool {
	for k := 0; k < 4; k++ {
		if p[k] < b.Lo[k] || p[k] >= b.Hi[k] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b. An empty o is
// contained in anything.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	for k := 0; k < 4; k++ {
		if o.Lo[k] < b.Lo[k] || o.Hi[k] > b.Hi[k] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of the two boxes and whether it is
// non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	var r Box
	for k := 0; k < 4; k++ {
		r.Lo[k] = max(b.Lo[k], o.Lo[k])
		r.Hi[k] = min(b.Hi[k], o.Hi[k])
		if r.Lo[k] >= r.Hi[k] {
			return Box{}, false
		}
	}
	return r, true
}

// String formats the box as [lo,hi)×... for diagnostics.
func (b Box) String() string {
	return fmt.Sprintf("[%d:%d, %d:%d, %d:%d, %d:%d]",
		b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2], b.Lo[3], b.Hi[3])
}

// Region is a rectangular fragment of a gray-level grid: the voxels of Box,
// stored contiguously x-fastest within the box. Regions are the data chunks
// exchanged between the input filters (RFR → IIC → texture filters).
type Region struct {
	Box  Box
	Data []uint8
}

// NewRegion allocates a zeroed region covering the box.
func NewRegion(b Box) *Region {
	return &Region{Box: b, Data: make([]uint8, b.NumVoxels())}
}

// index returns the flat index of the absolute point p within the region.
// The caller must ensure p is inside the box.
func (r *Region) index(p [4]int) int {
	s := r.Box.Shape()
	return ((((p[3]-r.Box.Lo[3])*s[2]+(p[2]-r.Box.Lo[2]))*s[1])+(p[1]-r.Box.Lo[1]))*s[0] + (p[0] - r.Box.Lo[0])
}

// At returns the voxel at the absolute grid point p.
func (r *Region) At(p [4]int) uint8 { return r.Data[r.index(p)] }

// Set stores the voxel at the absolute grid point p.
func (r *Region) Set(p [4]int, v uint8) { r.Data[r.index(p)] = v }

// SizeBytes returns the approximate wire size of the region.
func (r *Region) SizeBytes() int { return 64 + len(r.Data) }

// CopyFrom copies the intersection of the two regions from src into r and
// returns the number of voxels copied. Row (x-run) copies are used so the
// assembly cost in the IIC filter stays near memcpy speed.
func (r *Region) CopyFrom(src *Region) int {
	inter, ok := r.Box.Intersect(src.Box)
	if !ok {
		return 0
	}
	n := 0
	runLen := inter.Hi[0] - inter.Lo[0]
	var p [4]int
	p[0] = inter.Lo[0]
	for p[3] = inter.Lo[3]; p[3] < inter.Hi[3]; p[3]++ {
		for p[2] = inter.Lo[2]; p[2] < inter.Hi[2]; p[2]++ {
			for p[1] = inter.Lo[1]; p[1] < inter.Hi[1]; p[1]++ {
				di := r.index(p)
				si := src.index(p)
				copy(r.Data[di:di+runLen], src.Data[si:si+runLen])
				n += runLen
			}
		}
	}
	return n
}

// Grid returns the region's data as a standalone grid with the box's shape
// (gray-level count g is supplied by the caller since regions don't carry
// it). The data slice is shared, not copied.
func (r *Region) Grid(g int) *Grid {
	return &Grid{Dims: r.Box.Shape(), G: g, Data: r.Data}
}

// ExtractRegion copies the given box out of a grid into a new contiguous
// region. The box must lie within the grid.
func ExtractRegion(g *Grid, b Box) *Region {
	gridBox := BoxAt([4]int{}, g.Dims)
	if !gridBox.ContainsBox(b) {
		panic(fmt.Sprintf("volume: box %v outside grid %v", b, g.Dims))
	}
	r := NewRegion(b)
	src := &Region{Box: gridBox, Data: g.Data}
	r.CopyFrom(src)
	return r
}

// FloatRegion is a rectangular fragment of a FloatGrid — the output pieces
// streamed from the texture filters to the output filters, carrying the
// computed values of one Haralick parameter plus their positions.
type FloatRegion struct {
	Box  Box
	Data []float64
}

// NewFloatRegion allocates a zeroed float region covering the box.
func NewFloatRegion(b Box) *FloatRegion {
	return &FloatRegion{Box: b, Data: make([]float64, b.NumVoxels())}
}

func (r *FloatRegion) index(p [4]int) int {
	s := r.Box.Shape()
	return ((((p[3]-r.Box.Lo[3])*s[2]+(p[2]-r.Box.Lo[2]))*s[1])+(p[1]-r.Box.Lo[1]))*s[0] + (p[0] - r.Box.Lo[0])
}

// At returns the value at the absolute grid point p.
func (r *FloatRegion) At(p [4]int) float64 { return r.Data[r.index(p)] }

// Set stores the value at the absolute grid point p.
func (r *FloatRegion) Set(p [4]int, v float64) { r.Data[r.index(p)] = v }

// SizeBytes returns the approximate wire size of the region.
func (r *FloatRegion) SizeBytes() int { return 64 + 8*len(r.Data) }

// StoreInto writes the region's values into the float grid at their
// absolute positions; parts outside the grid are ignored.
func (r *FloatRegion) StoreInto(g *FloatGrid) {
	gridBox := BoxAt([4]int{}, g.Dims)
	inter, ok := gridBox.Intersect(r.Box)
	if !ok {
		return
	}
	runLen := inter.Hi[0] - inter.Lo[0]
	var p [4]int
	p[0] = inter.Lo[0]
	for p[3] = inter.Lo[3]; p[3] < inter.Hi[3]; p[3]++ {
		for p[2] = inter.Lo[2]; p[2] < inter.Hi[2]; p[2]++ {
			for p[1] = inter.Lo[1]; p[1] < inter.Hi[1]; p[1]++ {
				di := Index(g.Dims, p[0], p[1], p[2], p[3])
				si := r.index(p)
				copy(g.Data[di:di+runLen], r.Data[si:si+runLen])
			}
		}
	}
}

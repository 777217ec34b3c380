package glcm

// This file contains the oracle accumulation kernels that raster a region of
// interest (ROI) of a requantized 4D grid into a co-occurrence matrix, one
// ROI at a time. They are the sequential reference every faster path is
// verified against (blocked.go is the production kernel).
//
// The grid is addressed through explicit strides so the same kernels work on
// whole volumes and on chunk sub-views without copying. For each direction
// d, only the sub-box of the ROI whose d-neighbor also falls inside the ROI
// is visited, which removes all per-voxel boundary branches from the inner
// loop. Both the voxel and its neighbor must lie inside the ROI: the ROI is
// the complete statistical unit in the paper's raster-scan formulation.

// ComputeFull accumulates all voxel pairs of the ROI at origin with the
// given shape (both in grid coordinates) into the dense matrix m, one pass
// per direction. The matrix is NOT reset first, so multi-ROI or multi-pass
// accumulation is possible; call m.Reset() between independent ROIs.
func ComputeFull(data []uint8, strides, origin, shape [4]int, dirs []Direction, m *Full) {
	g := m.G
	counts := m.Counts
	var added uint64
	for _, d := range dirs {
		lo, hi, ok := pairBounds(shape, d)
		if !ok {
			continue
		}
		off := d[0]*strides[0] + d[1]*strides[1] + d[2]*strides[2] + d[3]*strides[3]
		base := origin[0]*strides[0] + origin[1]*strides[1] + origin[2]*strides[2] + origin[3]*strides[3]
		for t := lo[3]; t < hi[3]; t++ {
			it := base + t*strides[3]
			for z := lo[2]; z < hi[2]; z++ {
				iz := it + z*strides[2]
				for y := lo[1]; y < hi[1]; y++ {
					iy := iz + y*strides[1]
					i0 := iy + lo[0]*strides[0]
					for x := lo[0]; x < hi[0]; x++ {
						a := data[i0]
						b := data[i0+off]
						counts[int(a)*g+int(b)]++
						counts[int(b)*g+int(a)]++
						added += 2
						i0 += strides[0]
					}
				}
			}
		}
	}
	m.Total += added
}

// ComputeSparse is the oracle's sparse kernel: it accumulates the same pair
// set as ComputeFull directly into the sparse representation, keeping the
// entries sorted. Like ComputeFull it does not reset s first; call s.Reset()
// between independent ROIs. The common case (the gray pair already has an
// entry) is inlined against the builder index; only genuinely new cells take
// the sorted-insertion path.
func ComputeSparse(data []uint8, strides, origin, shape [4]int, dirs []Direction, s *Sparse) {
	s.ensureIndex()
	g := s.G
	var added uint64
	for _, d := range dirs {
		lo, hi, ok := pairBounds(shape, d)
		if !ok {
			continue
		}
		off := d[0]*strides[0] + d[1]*strides[1] + d[2]*strides[2] + d[3]*strides[3]
		base := origin[0]*strides[0] + origin[1]*strides[1] + origin[2]*strides[2] + origin[3]*strides[3]
		index := s.index
		entries := s.Entries // refreshed after any insertion
		for t := lo[3]; t < hi[3]; t++ {
			it := base + t*strides[3]
			for z := lo[2]; z < hi[2]; z++ {
				iz := it + z*strides[2]
				for y := lo[1]; y < hi[1]; y++ {
					iy := iz + y*strides[1]
					i0 := iy + lo[0]*strides[0]
					for x := lo[0]; x < hi[0]; x++ {
						a := data[i0]
						b := data[i0+off]
						i0 += strides[0]
						var inc uint32 = 1
						if a == b {
							inc = 2
						} else if a > b {
							a, b = b, a
						}
						if at := index[int(a)*g+int(b)]; at != 0 {
							entries[at-1].Count += inc
							added += 2
							continue
						}
						s.insertNew(a, b, inc)
						entries = s.Entries
						added += 2
					}
				}
			}
		}
	}
	s.Total += added
}

// pairBounds returns the half-open coordinate ranges [lo, hi) within an ROI
// of the given shape such that for every voxel v in the box, v+d is also
// inside the ROI. ok is false when the direction leaves no valid pairs
// (|d| ≥ shape along some dimension).
func pairBounds(shape [4]int, d Direction) (lo, hi [4]int, ok bool) {
	for k := 0; k < 4; k++ {
		lo[k] = 0
		hi[k] = shape[k]
		if d[k] > 0 {
			hi[k] = shape[k] - d[k]
		} else if d[k] < 0 {
			lo[k] = -d[k]
		}
		if lo[k] >= hi[k] {
			return lo, hi, false
		}
	}
	return lo, hi, true
}

// PairCount returns the number of voxel pairs an ROI of the given shape
// contributes across the direction set — the exact work per co-occurrence
// matrix. Used by cost models and tests.
func PairCount(shape [4]int, dirs []Direction) uint64 {
	var n uint64
	for _, d := range dirs {
		lo, hi, ok := pairBounds(shape, d)
		if !ok {
			continue
		}
		m := uint64(1)
		for k := 0; k < 4; k++ {
			m *= uint64(hi[k] - lo[k])
		}
		n += m
	}
	return n
}

// Strides returns the flat-index strides for a grid with the given
// dimensions laid out x-fastest: offset = x + X·(y + Y·(z + Z·t)).
func Strides(dims [4]int) [4]int {
	return [4]int{1, dims[0], dims[0] * dims[1], dims[0] * dims[1] * dims[2]}
}

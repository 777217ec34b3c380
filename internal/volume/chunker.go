package volume

import (
	"fmt"
	"sync"
)

// OutputDims returns the dimensions of the texture-analysis output for a
// grid of the given dimensions scanned by an ROI of the given shape: one
// output voxel per ROI origin, ROI fully contained in the dataset
// ("this scanning window process continues for all points in which the ROI
// occurs within the boundary of the image").
func OutputDims(dims, roi [4]int) ([4]int, error) {
	var out [4]int
	for k := 0; k < 4; k++ {
		if roi[k] < 1 {
			return out, fmt.Errorf("volume: ROI dimension %d is %d, must be >= 1", k, roi[k])
		}
		out[k] = dims[k] - roi[k] + 1
		if out[k] < 1 {
			return out, fmt.Errorf("volume: ROI %v larger than dataset %v in dimension %d", roi, dims, k)
		}
	}
	return out, nil
}

// Chunk is one 4D piece of the dataset handed to the texture-analysis
// filters: a voxel box plus the set of ROI origins it is responsible for.
// Index is the chunk's linear id in raster order, used for bookkeeping and
// explicit routing.
type Chunk struct {
	Index   int
	Voxels  Box // voxel extent including the ROI overlap halo
	Origins Box // ROI origins owned by this chunk (each origin owned once)
}

// Chunker partitions a dataset into IIC-to-TEXTURE chunks (paper §4.4):
// every ROI is fully contained in exactly one chunk, so adjacent chunks
// overlap by ROI−1 voxels along each dimension (Eqs. 1–2):
//
//	overlap_d = ROI_d − 1
//
// and chunk origins step by ChunkShape_d − (ROI_d − 1).
type Chunker struct {
	Dims       [4]int // dataset dimensions
	ChunkShape [4]int // requested voxel extent of a chunk
	ROI        [4]int // ROI shape
	counts     [4]int // number of chunks along each dimension
	outDims    [4]int // total ROI origins along each dimension

	sliceOnce  sync.Once
	sliceTable [][]Chunk // chunks intersecting each (z, t) plane, by t·Z + z
}

// NewChunker validates the geometry and returns a chunker. ChunkShape must
// be at least the ROI shape in every dimension (otherwise no ROI fits in a
// chunk) and no larger than the dataset.
func NewChunker(dims, chunkShape, roi [4]int) (*Chunker, error) {
	outDims, err := OutputDims(dims, roi)
	if err != nil {
		return nil, err
	}
	c := &Chunker{Dims: dims, ChunkShape: chunkShape, ROI: roi, outDims: outDims}
	for k := 0; k < 4; k++ {
		if chunkShape[k] < roi[k] {
			return nil, fmt.Errorf("volume: chunk shape %v smaller than ROI %v in dimension %d", chunkShape, roi, k)
		}
		if chunkShape[k] > dims[k] {
			return nil, fmt.Errorf("volume: chunk shape %v larger than dataset %v in dimension %d", chunkShape, dims, k)
		}
		step := chunkShape[k] - (roi[k] - 1) // origins per full chunk
		c.counts[k] = (outDims[k] + step - 1) / step
	}
	return c, nil
}

// Overlap returns the voxel overlap between adjacent chunks along each
// dimension — the quantity of Eqs. 1–2 (ROI_d − 1).
func (c *Chunker) Overlap() [4]int {
	var o [4]int
	for k := 0; k < 4; k++ {
		o[k] = c.ROI[k] - 1
	}
	return o
}

// Count returns the total number of chunks.
func (c *Chunker) Count() int {
	return c.counts[0] * c.counts[1] * c.counts[2] * c.counts[3]
}

// OutputDims returns the full output (ROI-origin) dimensions.
func (c *Chunker) OutputDims() [4]int { return c.outDims }

// Chunk returns the chunk with the given linear index in raster order
// (x-fastest).
func (c *Chunker) Chunk(index int) Chunk {
	if index < 0 || index >= c.Count() {
		panic(fmt.Sprintf("volume: chunk index %d out of range [0, %d)", index, c.Count()))
	}
	var ci [4]int
	rem := index
	for k := 0; k < 4; k++ {
		ci[k] = rem % c.counts[k]
		rem /= c.counts[k]
	}
	var ch Chunk
	ch.Index = index
	for k := 0; k < 4; k++ {
		step := c.ChunkShape[k] - (c.ROI[k] - 1)
		lo := ci[k] * step
		hi := lo + step
		if hi > c.outDims[k] {
			hi = c.outDims[k] // last chunk along this dimension is clipped
		}
		ch.Origins.Lo[k] = lo
		ch.Origins.Hi[k] = hi
		ch.Voxels.Lo[k] = lo
		ch.Voxels.Hi[k] = hi + c.ROI[k] - 1 // the ROI halo
	}
	return ch
}

// Chunks returns all chunks in raster order.
func (c *Chunker) Chunks() []Chunk {
	out := make([]Chunk, c.Count())
	for i := range out {
		out[i] = c.Chunk(i)
	}
	return out
}

// SliceChunks returns the chunks whose voxel boxes intersect the 2D slice
// plane (z, t), in raster order. The reader filters issue one call per I/O
// window; precomputing the per-plane lists replaces the all-chunks
// intersection scan each window used to pay (chunks overlap along z and t,
// so each plane belongs to only a handful of them). The returned slice is
// shared and must not be modified.
func (c *Chunker) SliceChunks(z, t int) []Chunk {
	if z < 0 || z >= c.Dims[2] || t < 0 || t >= c.Dims[3] {
		panic(fmt.Sprintf("volume: slice (z=%d, t=%d) outside dataset %v", z, t, c.Dims))
	}
	c.sliceOnce.Do(func() {
		c.sliceTable = make([][]Chunk, c.Dims[2]*c.Dims[3])
		for _, ch := range c.Chunks() {
			for t := ch.Voxels.Lo[3]; t < ch.Voxels.Hi[3]; t++ {
				for z := ch.Voxels.Lo[2]; z < ch.Voxels.Hi[2]; z++ {
					i := t*c.Dims[2] + z
					c.sliceTable[i] = append(c.sliceTable[i], ch)
				}
			}
		}
	})
	return c.sliceTable[t*c.Dims[2]+z]
}

// OwnerOf returns the linear index of the chunk owning the given ROI
// origin.
func (c *Chunker) OwnerOf(origin [4]int) int {
	idx := 0
	for k := 3; k >= 0; k-- {
		step := c.ChunkShape[k] - (c.ROI[k] - 1)
		ci := origin[k] / step
		if ci >= c.counts[k] {
			ci = c.counts[k] - 1
		}
		idx = idx*c.counts[k] + ci
	}
	if !c.Chunk(idx).Origins.Contains(origin) {
		panic(fmt.Sprintf("volume: owner computation failed for origin %v", origin))
	}
	return idx
}

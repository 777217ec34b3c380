// Package filters implements the paper's eight concrete filters (§4.3):
//
//	input:    RFR (RAWFileReader), IIC (InputImageConstructor)
//	texture:  HMP (HaralickMatrixProducer),
//	          HCC (HaralickCoMatrixCalculator), HPC (HaralickParameterCalculator)
//	output:   USO (UnstitchedOutput), HIC (HaralickImageConstructor),
//	          JIW (JPGImageWriter)
//
// plus two auxiliaries that the paper's toolkit would provide out of band: a
// GridSource for in-memory datasets and a Collector that assembles results
// in memory for verification and library use.
//
// All filters are engine-agnostic: the same code runs under the local
// goroutine engine, the loopback-TCP engine and the simulated-cluster
// engine.
package filters

import (
	"encoding/gob"
	"fmt"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// Standard port names used by every pipeline composition.
const (
	PortOut = "out"
	PortIn  = "in"
)

// PieceMsg carries a rectangular fragment of requantized image data from an
// RFR copy to the IIC copy assembling the texture chunk it belongs to.
type PieceMsg struct {
	Chunk  int // texture-chunk index this piece contributes to
	Region *volume.Region
}

// SizeBytes implements filter.Payload.
func (m *PieceMsg) SizeBytes() int { return 16 + m.Region.SizeBytes() }

// ChunkMsg is one complete IIC-to-TEXTURE chunk: the voxel region (with ROI
// halo) plus the box of ROI origins the receiving texture filter must
// process.
type ChunkMsg struct {
	Chunk   int
	Origins volume.Box
	Region  *volume.Region
}

// SizeBytes implements filter.Payload.
func (m *ChunkMsg) SizeBytes() int { return 80 + m.Region.SizeBytes() }

// MatrixBatchMsg is a packet of co-occurrence matrices from an HCC copy to
// the HPC filters, one matrix per ROI origin of Origins in raster order.
// Exactly one of Sparse/Full is populated, matching the configured
// representation; the sparse form is dramatically smaller on the wire,
// which is the paper's case for it in the split implementation.
type MatrixBatchMsg struct {
	Chunk   int
	Origins volume.Box
	G       int
	Sparse  []*glcm.Sparse
	Full    []*glcm.Full
	NoSkip  bool // full-matrix parameter calculation without the zero test

	// scratch is the pooled container whose arenas the matrices alias.
	// Local-engine only (gob skips it); returned to the pool by Recycle.
	scratch *core.MatrixBatch
}

// SizeBytes implements filter.Payload.
func (m *MatrixBatchMsg) SizeBytes() int {
	n := 96
	for _, s := range m.Sparse {
		n += s.SizeBytes()
	}
	for _, f := range m.Full {
		n += 16 + 4*len(f.Counts)
	}
	return n
}

// ParamMsg carries computed values of one Haralick parameter for the ROI
// origins of Box (raster order) from a texture filter to an output filter.
type ParamMsg struct {
	Feature features.Feature
	Box     volume.Box
	Values  []float64
}

// SizeBytes implements filter.Payload.
func (m *ParamMsg) SizeBytes() int { return 72 + 8*len(m.Values) }

// Validate checks the value count matches the box.
func (m *ParamMsg) Validate() error {
	if want := m.Box.NumVoxels(); len(m.Values) != want {
		return fmt.Errorf("filters: ParamMsg for %v has %d values, box holds %d", m.Feature, len(m.Values), want)
	}
	return nil
}

// AssembledMsg is one fully stitched 4D output dataset for a single
// Haralick parameter, sent from HIC to JIW together with the value range
// needed for normalization.
type AssembledMsg struct {
	Feature  features.Feature
	Grid     *volume.FloatGrid
	Min, Max float64
}

// SizeBytes implements filter.Payload.
func (m *AssembledMsg) SizeBytes() int { return 96 + 8*len(m.Grid.Data) }

func init() {
	gob.Register(&PieceMsg{})
	gob.Register(&ChunkMsg{})
	gob.Register(&MatrixBatchMsg{})
	gob.Register(&ParamMsg{})
	gob.Register(&AssembledMsg{})
}

// SplitBox partitions a box into at most n sub-boxes, preserving raster
// completeness (used by HCC to emit a packet of co-occurrence matrices
// "whenever [a fraction] of a chunk had been processed"). The cut runs along
// the outermost (slowest) dimension that has at least n origins, so packets
// keep the box's full x rows and runs of consecutive y rows — what the GLCM
// kernel reuses work across — and x is cut only when no other dimension can
// take all n cuts. When no dimension can, the longest one is cut (the slower
// on ties) into fewer than n boxes. It returns at least one box for a
// non-empty input.
func SplitBox(b volume.Box, n int) []volume.Box {
	if n < 1 {
		n = 1
	}
	shape := b.Shape()
	dim, best := 0, 0
	for k := 3; k >= 0; k-- {
		if shape[k] >= n {
			dim, best = k, shape[k]
			break
		}
		if shape[k] > best {
			dim, best = k, shape[k]
		}
	}
	if best == 0 {
		return nil
	}
	if n > best {
		n = best
	}
	out := make([]volume.Box, 0, n)
	for i := 0; i < n; i++ {
		lo := b.Lo[dim] + i*best/n
		hi := b.Lo[dim] + (i+1)*best/n
		sub := b
		sub.Lo[dim] = lo
		sub.Hi[dim] = hi
		out = append(out, sub)
	}
	return out
}

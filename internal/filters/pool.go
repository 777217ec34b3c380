package filters

import (
	"sync"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/metrics"
	"haralick4d/internal/volume"
)

// This file implements recycling of the hot-path message buffers with
// sync.Pool, so the texture filters reach a steady state with no per-chunk
// allocation. Ownership discipline: a message's buffers belong to the
// producer until Send succeeds, then to the single consumer the runtime
// delivers the payload pointer to, which calls Recycle once the values have
// been copied or persisted. Across nodes the TCP transport recycles the
// sender's message once its frame is written, and the receiver decodes
// fresh objects of its own (a decoded MatrixBatchMsg has no batch
// container), which its consumer recycles the same way.

var (
	paramPool  = sync.Pool{New: func() any { return new(ParamMsg) }}
	floatPool  sync.Pool // holds *[]float64
	batchPool  = sync.Pool{New: func() any { return new(MatrixBatchMsg) }}
	piecePool  = sync.Pool{New: func() any { return new(PieceMsg) }}
	regionPool sync.Pool // holds *volume.Region
	u16Pool    sync.Pool // holds *[]uint16 (reader decode scratch)
)

// getRegion leases a region covering box b, reusing pooled backing when its
// capacity suffices. The region's data is NOT zeroed: callers overwrite
// every voxel (window fills and piece CopyFrom both cover the full box).
func getRegion(b volume.Box, met *metrics.Copy) *volume.Region {
	n := b.NumVoxels()
	if p, ok := regionPool.Get().(*volume.Region); ok && cap(p.Data) >= n {
		p.Box = b
		p.Data = p.Data[:n]
		met.Pool(true)
		return p
	}
	met.Pool(false)
	return volume.NewRegion(b)
}

func putRegion(r *volume.Region) {
	if r == nil || cap(r.Data) == 0 {
		return
	}
	regionPool.Put(r)
}

// getU16 leases a decode scratch buffer of length n.
func getU16(n int) []uint16 {
	if p, ok := u16Pool.Get().(*[]uint16); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]uint16, n)
}

func putU16(s []uint16) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	u16Pool.Put(&s)
}

// newPieceMsg assembles a pooled PieceMsg taking ownership of region.
func newPieceMsg(chunk int, region *volume.Region) *PieceMsg {
	m := piecePool.Get().(*PieceMsg)
	m.Chunk, m.Region = chunk, region
	return m
}

// Recycle returns the message and its region backing to the pools. Only the
// message's single consumer (the IIC copy that assembled the piece) may call
// it, after CopyFrom; the piece must not be touched afterwards.
func (m *PieceMsg) Recycle() {
	putRegion(m.Region)
	m.Region = nil
	piecePool.Put(m)
}

// getFloats returns a zeroed []float64 of length n, reusing pooled backing
// when its capacity suffices. The lease outcome (reuse vs. fresh allocation)
// is recorded on met, which may be nil.
func getFloats(n int, met *metrics.Copy) []float64 {
	if p, ok := floatPool.Get().(*[]float64); ok && cap(*p) >= n {
		s := (*p)[:n]
		clear(s)
		met.Pool(true)
		return s
	}
	met.Pool(false)
	return make([]float64, n)
}

func putFloats(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	floatPool.Put(&s)
}

// newParamMsg assembles a pooled ParamMsg, taking ownership of vals.
func newParamMsg(f features.Feature, box volume.Box, vals []float64) *ParamMsg {
	m := paramPool.Get().(*ParamMsg)
	m.Feature, m.Box, m.Values = f, box, vals
	return m
}

// Recycle returns the message and its Values backing to the pools. Only the
// message's final consumer may call it, after the values have been copied
// or persisted; the message must not be touched afterwards.
func (m *ParamMsg) Recycle() {
	putFloats(m.Values)
	m.Values = nil
	paramPool.Put(m)
}

// newMatrixBatchMsg assembles a pooled MatrixBatchMsg publishing one
// grain's batch, whose container the message now owns.
func newMatrixBatchMsg(chunk, g int, noSkip bool, b *core.MatrixBatch) *MatrixBatchMsg {
	m := batchPool.Get().(*MatrixBatchMsg)
	m.Chunk, m.Origins, m.G, m.NoSkip = chunk, b.Origins, g, noSkip
	m.Sparse, m.Full = nil, nil
	if len(b.Sparse) > 0 {
		m.Sparse = b.Sparse
	} else {
		m.Full = b.Full
	}
	m.grain = b
	return m
}

// Recycle returns the message to its pool and, on the producing node, the
// batch container whose arenas the matrices alias to its HCC copy's free
// list. Only the final consumer may call it; the matrices become invalid
// immediately.
func (m *MatrixBatchMsg) Recycle() {
	m.Sparse, m.Full = nil, nil
	if m.grain != nil {
		m.grain.Release()
		m.grain = nil
	}
	batchPool.Put(m)
}

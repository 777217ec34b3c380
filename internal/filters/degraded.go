package filters

import (
	"encoding/gob"
	"fmt"
	"sort"

	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

// DegradedPieceMsg replaces the PieceMsgs a reader cannot produce when a
// slice fails its read (checksum mismatch, truncation, missing file) and the
// pipeline runs under fault.SkipDegraded: one notice per (failed window ×
// intersecting chunk), routed to the same IIC copy the data would have gone
// to, so chunk assembly accounting stays exact without the voxels.
type DegradedPieceMsg struct {
	Chunk int        // texture-chunk index the lost piece belonged to
	Slice int        // global slice id (dataset.SliceID) that failed
	Box   volume.Box // the lost window ∩ chunk voxels
}

// SizeBytes implements filter.Payload.
func (m *DegradedPieceMsg) SizeBytes() int { return 80 }

// DegradedChunkMsg is emitted by IIC in place of a ChunkMsg when any of a
// chunk's input came from degraded slices: the chunk's ROI-origin box plus
// the sorted slice ids lost. Texture filters forward it untouched; sinks use
// it to shrink their completion targets and report what was skipped.
type DegradedChunkMsg struct {
	Chunk   int
	Origins volume.Box
	Slices  []int
}

// SizeBytes implements filter.Payload.
func (m *DegradedChunkMsg) SizeBytes() int { return 80 + 8*len(m.Slices) }

func init() {
	gob.Register(&DegradedPieceMsg{})
	gob.Register(&DegradedChunkMsg{})
}

// emitDegraded is the SkipDegraded counterpart of emitPieces: it announces a
// failed read window to every IIC copy owning a chunk the window would have
// fed, dropping chunks in the resume skip-set (their fate — assembled or
// degraded — is already journaled).
func emitDegraded(ctx filter.Context, chunker *volume.Chunker, z, t, slice int, window volume.Box, iicCopies int, skip map[int]bool) error {
	met := ctx.Metrics()
	for _, ch := range chunker.SliceChunks(z, t) {
		if skip[ch.Index] {
			continue
		}
		inter, ok := ch.Voxels.Intersect(window)
		if !ok {
			continue
		}
		msg := &DegradedPieceMsg{Chunk: ch.Index, Slice: slice, Box: inter}
		emit := met.StartEmit()
		err := ctx.SendTo(PortOut, chunkOwnerIIC(ch.Index, iicCopies), msg)
		emit.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// forwardDegraded relays a degraded-chunk notice from a texture filter to
// its consumers. With RouteByFeature the notice goes to every consumer copy:
// each HIC copy stitches its own feature subset against the full output
// volume, so every copy must shrink its completion target. Otherwise one
// policy-routed send reaches the shared-state sink (Collector) or USO.
func forwardDegraded(ctx filter.Context, cfg *TextureConfig, dm *DegradedChunkMsg) error {
	if cfg.RouteByFeature {
		copies := ctx.ConsumerCopies(PortOut)
		if copies == 0 {
			return fmt.Errorf("filters: %s output not connected", ctx.FilterName())
		}
		for i := 0; i < copies; i++ {
			if err := ctx.SendTo(PortOut, i, dm); err != nil {
				return err
			}
		}
		return nil
	}
	return ctx.Send(PortOut, dm)
}

// dedupSlices sorts and deduplicates the slice ids a chunk lost (a slice can
// feed a chunk through several reader windows).
func dedupSlices(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

package filters

import (
	"fmt"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

// defaultPacketsPerChunk is the paper's packetization: a packet whenever a
// quarter of a chunk has been processed.
const defaultPacketsPerChunk = 4

// TextureConfig is shared by the texture analysis filters.
type TextureConfig struct {
	Analysis core.Config
	// RouteByFeature routes every ParamMsg explicitly to output copy
	// (feature index mod copies) — required when the consumer is HIC, whose
	// copies each stitch complete parameters. Leave false for transparent
	// USO/Collector copies.
	RouteByFeature bool
	// PacketsPerChunk is how many co-occurrence matrix packets HCC emits
	// per chunk. Zero selects the default (4); negative values are rejected
	// by Validate. Ignored by HMP/HPC.
	PacketsPerChunk int
}

// Validate checks the filter-level knobs. The embedded Analysis config is
// validated separately by each filter on its private copy (core.Config
// validation fills defaults in place).
func (c *TextureConfig) Validate() error {
	if c.PacketsPerChunk < 0 {
		return fmt.Errorf("filters: PacketsPerChunk %d must be >= 0 (0 selects the default %d)",
			c.PacketsPerChunk, defaultPacketsPerChunk)
	}
	return nil
}

func (c *TextureConfig) packets() int {
	if c.PacketsPerChunk == 0 {
		return defaultPacketsPerChunk
	}
	return c.PacketsPerChunk
}

// sendParam emits a ParamMsg under the configured routing discipline.
//
// Routing invariant: with RouteByFeature set, every message for a given
// feature — from every producer copy — lands on the same consumer copy
// (feature index mod copies). HIC depends on this: each of its copies
// counts the voxels it has stitched per feature and emits the assembled
// dataset when the count completes, so splitting one feature's portions
// across copies would deadlock the assembly. Without RouteByFeature the
// engine picks any consumer copy, which is only correct for sinks whose
// copies share state (Collector) or keep per-feature files apart (USO).
func sendParam(ctx filter.Context, cfg *TextureConfig, m *ParamMsg) error {
	if cfg.RouteByFeature {
		copies := ctx.ConsumerCopies(PortOut)
		if copies == 0 {
			return fmt.Errorf("filters: %s output not connected", ctx.FilterName())
		}
		return ctx.SendTo(PortOut, int(m.Feature)%copies, m)
	}
	return ctx.Send(PortOut, m)
}

// NewHMP returns the HaralickMatrixProducer factory: the combined texture
// filter that computes the co-occurrence matrix and all selected Haralick
// parameters for every ROI of each incoming chunk, emitting one ParamMsg
// per parameter per chunk. With Analysis.Workers resolving above one, each
// chunk's ROI rows are dealt to an intra-filter worker pool
// (core.AnalyzeRegionInto); output values are bit-identical either way.
func NewHMP(cfg TextureConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			if err := cfg.Validate(); err != nil {
				return err
			}
			acfg := cfg.Analysis
			if err := acfg.Validate(); err != nil {
				return err
			}
			// Persistent output-region headers; the float backing is leased
			// from the pool per chunk and rides out inside the ParamMsgs.
			outs := make([]*volume.FloatRegion, len(acfg.Features))
			for i := range outs {
				outs[i] = &volume.FloatRegion{}
			}
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					if err := forwardDegraded(ctx, &cfg, dm); err != nil {
						return err
					}
					continue
				}
				chunk, okType := m.Payload.(*ChunkMsg)
				if !okType {
					return fmt.Errorf("filters: HMP received %T", m.Payload)
				}
				met := ctx.Metrics()
				n := chunk.Origins.NumVoxels()
				for i := range outs {
					outs[i].Box = chunk.Origins
					outs[i].Data = getFloats(n, met)
				}
				sp := met.StartCompute()
				err := core.AnalyzeRegionInto(chunk.Region, chunk.Origins, &acfg, nil, outs)
				sp.End()
				if err != nil {
					return err
				}
				emit := met.StartEmit()
				for i, fr := range outs {
					out := newParamMsg(acfg.Features[i], fr.Box, fr.Data)
					fr.Data = nil // ownership moves to the message
					if err := sendParam(ctx, &cfg, out); err != nil {
						return err
					}
				}
				emit.End()
			}
		})
	}
}

// NewHCC returns the HaralickCoMatrixCalculator factory: the first half of
// the split implementation. For each chunk it rasters the ROI origins,
// computes one co-occurrence matrix per ROI in the configured
// representation, and ships them to the HPC filters in packets covering a
// fraction of the chunk. Packet containers are pooled: the consumer's
// Recycle returns each batch's arenas for the next chunk.
func NewHCC(cfg TextureConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			if err := cfg.Validate(); err != nil {
				return err
			}
			acfg := cfg.Analysis
			if err := acfg.Validate(); err != nil {
				return err
			}
			sparse := acfg.Representation == core.SparseMatrix
			perROI := 0.0 // sparse entries per ROI of the previous packet
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					// One notice per degraded chunk — no packet split; the
					// HPC side forwards it on unchanged.
					if err := ctx.Send(PortOut, dm); err != nil {
						return err
					}
					continue
				}
				chunk, okType := m.Payload.(*ChunkMsg)
				if !okType {
					return fmt.Errorf("filters: HCC received %T", m.Payload)
				}
				met := ctx.Metrics()
				for _, sub := range SplitBox(chunk.Origins, cfg.packets()) {
					scratch := getBatchScratch(met)
					scratch.EntryHint = int(perROI * float64(sub.NumVoxels()))
					sp := met.StartCompute()
					var err error
					if sparse {
						err = core.SparseBatchInto(chunk.Region, sub, &acfg, nil, scratch)
						perROI = float64(scratch.NumEntries()) / float64(sub.NumVoxels())
					} else {
						err = core.FullBatchInto(chunk.Region, sub, &acfg, nil, scratch)
					}
					sp.End()
					if err != nil {
						return err
					}
					batch := newMatrixBatchMsg(chunk.Chunk, sub, acfg.GrayLevels,
						acfg.Representation == core.FullMatrixNoSkip, scratch)
					emit := met.StartEmit()
					err = ctx.Send(PortOut, batch)
					emit.End()
					if err != nil {
						return err
					}
				}
			}
		})
	}
}

// NewHPC returns the HaralickParameterCalculator factory: the second half
// of the split implementation. It computes every selected Haralick
// parameter from each matrix of each incoming packet — directly from the
// sparse form when the matrices arrive sparse — and emits one ParamMsg per
// parameter per packet, recycling the packet afterwards.
func NewHPC(cfg TextureConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			if err := cfg.Validate(); err != nil {
				return err
			}
			acfg := cfg.Analysis
			if err := acfg.Validate(); err != nil {
				return err
			}
			calc := features.NewCalculator(acfg.GrayLevels, acfg.Features)
			outs := make([]*volume.FloatRegion, len(acfg.Features))
			for i := range outs {
				outs[i] = &volume.FloatRegion{}
			}
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					if err := forwardDegraded(ctx, &cfg, dm); err != nil {
						return err
					}
					continue
				}
				batch, okType := m.Payload.(*MatrixBatchMsg)
				if !okType {
					return fmt.Errorf("filters: HPC received %T", m.Payload)
				}
				met := ctx.Metrics()
				n := batch.Origins.NumVoxels()
				if len(batch.Sparse) != n && len(batch.Full) != n {
					return fmt.Errorf("filters: packet for %v has %d+%d matrices, want %d",
						batch.Origins, len(batch.Sparse), len(batch.Full), n)
				}
				for i := range outs {
					outs[i].Box = batch.Origins
					outs[i].Data = getFloats(n, met)
				}
				sp := met.StartCompute()
				for k := 0; k < n; k++ {
					var vals []float64
					var err error
					if batch.Sparse != nil {
						vals, err = calc.FromSparse(batch.Sparse[k])
					} else {
						vals, err = calc.FromFull(batch.Full[k], !batch.NoSkip)
					}
					if err != nil {
						return err
					}
					for i, v := range vals {
						outs[i].Data[k] = v
					}
				}
				sp.End()
				emit := met.StartEmit()
				for i, fr := range outs {
					out := newParamMsg(acfg.Features[i], fr.Box, fr.Data)
					fr.Data = nil
					if err := sendParam(ctx, &cfg, out); err != nil {
						return err
					}
				}
				emit.End()
				batch.Recycle()
			}
		})
	}
}

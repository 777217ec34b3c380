package filters

import (
	"fmt"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

// TextureConfig is shared by the texture analysis filters.
type TextureConfig struct {
	Analysis core.Config
	// RouteByFeature routes every ParamMsg explicitly to output copy
	// (feature index mod copies) — required when the consumer is HIC, whose
	// copies each stitch complete parameters. Leave false for transparent
	// USO/Collector copies.
	RouteByFeature bool
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
// the split implementation. For each chunk it computes one co-occurrence
// matrix per ROI origin in the configured representation and streams them
// to the HPC filters grain by grain (core.StreamBatches): each finished
// (z, t) plane, or run of plane rows, is sent as one MatrixBatchMsg while
// the kernel workers go on with the next. Its compute span is the wait for
// the next grain, its emit span the send. Batch containers come from a free
// list the copy owns, and return to it when the consumer recycles the
// message — or, over TCP, once the frame is written.
func NewHCC(cfg TextureConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			acfg := cfg.Analysis
			if err := acfg.Validate(); err != nil {
				return err
			}
			noSkip := acfg.Representation == core.FullMatrixNoSkip
			met := ctx.Metrics()
			// Room for twice the batches the copy holds at once — one per
			// kernel worker and the one being sent — so that as many again
			// can wait in the consumer's queue.
			free := core.NewBatchList(2*(acfg.EffectiveWorkers()+1), met.Pool)
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					// One notice per degraded chunk; the HPC side forwards it
					// on unchanged.
					if err := ctx.Send(PortOut, dm); err != nil {
						return err
					}
					continue
				}
				chunk, okType := m.Payload.(*ChunkMsg)
				if !okType {
					return fmt.Errorf("filters: HCC received %T", m.Payload)
				}
				sp := met.StartCompute()
				err := core.StreamBatches(chunk.Region, chunk.Origins, &acfg, nil, free, func(b *core.MatrixBatch) error {
					sp.End()
					emit := met.StartEmit()
					err := ctx.Send(PortOut, newMatrixBatchMsg(chunk.Chunk, acfg.GrayLevels, noSkip, b))
					emit.End()
					sp = met.StartCompute()
					return err
				})
				sp.End()
				if err != nil {
					return err
				}
			}
		})
	}
}

// NewHPC returns the HaralickParameterCalculator factory: the second half
// of the split implementation. It computes every selected Haralick
// parameter from each matrix of each incoming batch — directly from the
// sparse form when the matrices arrive sparse — and emits one ParamMsg per
// parameter per batch, recycling the batch afterwards.
func NewHPC(cfg TextureConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
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
					return fmt.Errorf("filters: batch for %v has %d+%d matrices, want %d",
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

package filters

import (
	"errors"
	"fmt"
	"time"

	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/volume"
)

// chunkOwnerIIC returns the IIC copy responsible for assembling the given
// texture chunk: chunks are dealt round-robin across the explicit IIC
// copies (paper §5.2, "round robin distribution of RFR-to-IIC chunks across
// multiple copies of the IIC filter").
func chunkOwnerIIC(chunk, iicCopies int) int { return chunk % iicCopies }

// RFRConfig configures the RAWFileReader filter. One RFR copy runs per
// storage node; copy index i serves storage node i. The store decodes the
// dataset's slice encoding (raw or DICOM), so the filter reads both.
type RFRConfig struct {
	Store   *dataset.Store
	Chunker *volume.Chunker
	// GrayLevels requantizes pixels during the read using the dataset's
	// global min/max, so only 1-byte gray levels travel the streams.
	GrayLevels int
	// IOChunk is the (x, y) window read per positioned I/O; {0, 0} reads
	// whole slices ("a RFR filter can read one image slice without any disk
	// seek operations").
	IOChunk [2]int
	// ReadAhead is the number of I/O windows each copy keeps in flight
	// (positioned read + requantization) ahead of the emit loop. 0 reads
	// synchronously, reproducing the un-staged reader exactly;
	// readahead.Auto sizes each copy's depth from what it measures.
	ReadAhead int
	// FaultPolicy selects what a failed slice read does: fault.FailFast
	// (zero value) aborts the run with the read error; fault.SkipDegraded
	// replaces the lost window with DegradedPieceMsg notices so the rest of
	// the dataset still completes. Only dataset.ErrDegradedData failures are
	// skippable — programming errors always abort.
	FaultPolicy fault.Policy
	// Skip lists texture chunks whose outputs a resumed run already holds
	// (recovered from the checkpoint journal): pieces feeding only skipped
	// chunks are never read, and no piece of a skipped chunk is emitted, so
	// downstream assembly sees exactly the unfinished remainder.
	Skip map[int]bool
}

// ioWindow is one read unit of the reader filters: a 2D sub-window of one
// slice.
type ioWindow struct {
	ref            dataset.SliceRef
	x0, x1, y0, y1 int
}

// NewRFR returns the RFR factory. The filter reads the 2D slices owned by
// its storage node through the read-ahead stage, requantizes them off the
// emit path, cuts each I/O window into the pieces needed by each
// intersecting texture chunk (found via the chunker's precomputed per-slice
// lists), and routes every piece explicitly to the IIC copy that assembles
// that chunk.
func NewRFR(cfg RFRConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			st := cfg.Store
			meta := &st.Meta
			rctx := ctx.RunContext()
			iicCopies := ctx.ConsumerCopies(PortOut)
			if iicCopies == 0 {
				return fmt.Errorf("filters: RFR output not connected")
			}
			// The index read doubles as a free latency sample of the backend.
			indexStart := time.Now()
			refs, err := st.NodeIndexContext(rctx, ctx.CopyIndex())
			if err != nil {
				return err
			}
			seed := time.Since(indexStart)
			X, Y := meta.Dims[0], meta.Dims[1]
			iox, ioy := cfg.IOChunk[0], cfg.IOChunk[1]
			if iox <= 0 || iox > X {
				iox = X
			}
			if ioy <= 0 || ioy > Y {
				ioy = Y
			}
			met := ctx.Metrics()
			// A window feeding only chunks the resume skip-set covers is
			// dropped before it reaches the read stage: resuming near the end
			// of a dataset re-reads almost nothing.
			needed := func(w ioWindow) bool {
				if len(cfg.Skip) == 0 {
					return true
				}
				box := volume.Box{
					Lo: [4]int{w.x0, w.y0, w.ref.Z, w.ref.T},
					Hi: [4]int{w.x1, w.y1, w.ref.Z + 1, w.ref.T + 1},
				}
				for _, ch := range cfg.Chunker.SliceChunks(w.ref.Z, w.ref.T) {
					if cfg.Skip[ch.Index] {
						continue
					}
					if _, ok := ch.Voxels.Intersect(box); ok {
						return true
					}
				}
				return false
			}
			var windows []ioWindow
			for _, ref := range refs {
				for y0 := 0; y0 < Y; y0 += ioy {
					for x0 := 0; x0 < X; x0 += iox {
						w := ioWindow{ref: ref, x0: x0, x1: min(x0+iox, X), y0: y0, y1: min(y0+ioy, Y)}
						if needed(w) {
							windows = append(windows, w)
						}
					}
				}
			}
			// fetch runs on the read-ahead goroutines (or inline when
			// ReadAhead is 0): one positioned read plus the uint16→gray
			// decode, into a pooled window region the emit loop recycles.
			// Whole-slice windows go through ReadSliceInto, which verifies
			// the per-slice checksum when the index carries one; sub-slice
			// windows read rows positionally and catch truncation but not
			// bit flips.
			fetch := func(i int) (*volume.Region, error) {
				w := windows[i]
				sp := met.StartRead()
				defer sp.End()
				raw := getU16((w.x1 - w.x0) * (w.y1 - w.y0))
				defer putU16(raw)
				var err error
				if w.x0 == 0 && w.x1 == X && w.y0 == 0 && w.y1 == Y {
					err = st.ReadSliceIntoContext(rctx, ctx.CopyIndex(), w.ref, raw)
				} else {
					err = st.ReadSliceRegionIntoContext(rctx, ctx.CopyIndex(), w.ref, w.x0, w.x1, w.y0, w.y1, raw)
				}
				if err != nil {
					return nil, err
				}
				window := getRegion(volume.Box{
					Lo: [4]int{w.x0, w.y0, w.ref.Z, w.ref.T},
					Hi: [4]int{w.x1, w.y1, w.ref.Z + 1, w.ref.T + 1},
				}, met)
				for i, v := range raw {
					window.Data[i] = volume.QuantizeValue(v, cfg.GrayLevels, meta.Min, meta.Max)
				}
				return window, nil
			}
			ra, async := startReadAhead(ctx, fetch, len(windows), 2*iox*ioy, cfg.ReadAhead, seed)
			defer func() { met.ReadAhead(ra.Depth()); ra.Close() }()
			for i := range windows {
				var wait metrics.Span
				if async {
					wait = met.StartReadWait()
				}
				window, err, ok := ra.Next()
				wait.End()
				if !ok {
					break // closed mid-stream; the engine is aborting
				}
				if err != nil {
					w := windows[i]
					if cfg.FaultPolicy != fault.SkipDegraded || !errors.Is(err, dataset.ErrDegradedData) {
						return err
					}
					box := volume.Box{
						Lo: [4]int{w.x0, w.y0, w.ref.Z, w.ref.T},
						Hi: [4]int{w.x1, w.y1, w.ref.Z + 1, w.ref.T + 1},
					}
					if err := emitDegraded(ctx, cfg.Chunker, w.ref.Z, w.ref.T,
						dataset.SliceID(meta, w.ref.Z, w.ref.T), box, iicCopies, cfg.Skip); err != nil {
						return err
					}
					continue
				}
				if err := emitPieces(ctx, cfg.Chunker, windows[i].ref.Z, windows[i].ref.T, window, iicCopies, cfg.Skip); err != nil {
					return err
				}
				putRegion(window)
			}
			return nil
		})
	}
}

// startReadAhead opens a reader copy's prefetch stage over n windows of
// windowBytes raw bytes each — self-sized under readahead.Auto (seed: how
// long the copy's index read took), at the fixed depth otherwise — and
// reports whether fetches run ahead of Next at all.
func startReadAhead(ctx filter.Context, fetch readahead.Fetch[*volume.Region], n, windowBytes, depth int, seed time.Duration) (*readahead.Reader[*volume.Region], bool) {
	if depth == readahead.Auto {
		return readahead.NewAuto(fetch, n, readahead.AutoCap(ctx.NumCopies(), windowBytes), seed), true
	}
	return readahead.New(fetch, n, depth), depth > 0
}

// emitPieces cuts a filled window into the pieces needed by each texture
// chunk intersecting its slice plane and routes each to the IIC copy owning
// that chunk, dropping chunks in the resume skip-set.
func emitPieces(ctx filter.Context, chunker *volume.Chunker, z, t int, window *volume.Region, iicCopies int, skip map[int]bool) error {
	met := ctx.Metrics()
	for _, ch := range chunker.SliceChunks(z, t) {
		if skip[ch.Index] {
			continue
		}
		inter, ok := ch.Voxels.Intersect(window.Box)
		if !ok {
			continue
		}
		piece := getRegion(inter, met)
		piece.CopyFrom(window)
		msg := newPieceMsg(ch.Index, piece)
		emit := met.StartEmit()
		err := ctx.SendTo(PortOut, chunkOwnerIIC(ch.Index, iicCopies), msg)
		emit.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// IICConfig configures the InputImageConstructor filter.
type IICConfig struct {
	Chunker *volume.Chunker
}

// NewIIC returns the IIC factory. Each copy places incoming image pieces
// into temporary chunk buffers; once all data elements of a chunk have been
// received, the complete IIC-to-TEXTURE chunk is sent to the texture
// analysis filters.
func NewIIC(cfg IICConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			type assembly struct {
				region    *volume.Region // nil until the first real piece arrives
				remaining int
				degraded  []int // slice ids lost to degraded reads (may repeat)
			}
			pending := map[int]*assembly{}
			done := map[int]bool{}
			for {
				m, ok := ctx.Recv()
				if !ok {
					break
				}
				var chunkIdx int
				switch p := m.Payload.(type) {
				case *PieceMsg:
					chunkIdx = p.Chunk
				case *DegradedPieceMsg:
					chunkIdx = p.Chunk
				default:
					return fmt.Errorf("filters: IIC received %T", m.Payload)
				}
				if owner := chunkOwnerIIC(chunkIdx, ctx.NumCopies()); owner != ctx.CopyIndex() {
					return fmt.Errorf("filters: chunk %d piece routed to IIC copy %d, owner is %d",
						chunkIdx, ctx.CopyIndex(), owner)
				}
				if done[chunkIdx] {
					return fmt.Errorf("filters: chunk %d received data after completion", chunkIdx)
				}
				met := ctx.Metrics()
				sp := met.StartAssemble()
				ch := cfg.Chunker.Chunk(chunkIdx)
				a := pending[chunkIdx]
				if a == nil {
					a = &assembly{remaining: ch.Voxels.NumVoxels()}
					pending[chunkIdx] = a
				}
				switch p := m.Payload.(type) {
				case *PieceMsg:
					if a.region == nil {
						a.region = volume.NewRegion(ch.Voxels)
					}
					a.remaining -= a.region.CopyFrom(p.Region)
					p.Recycle()
				case *DegradedPieceMsg:
					// The reader windows are disjoint, so a lost window's
					// voxels were counted exactly once and never also arrive
					// as data; the accounting stays exact without them.
					a.remaining -= p.Box.NumVoxels()
					a.degraded = append(a.degraded, p.Slice)
				}
				sp.End()
				if a.remaining < 0 {
					return fmt.Errorf("filters: chunk %d received overlapping pieces", chunkIdx)
				}
				if a.remaining == 0 {
					var out filter.Payload
					if len(a.degraded) > 0 {
						// Any lost input poisons the whole chunk: texture
						// windows cross piece boundaries, so partial data
						// cannot produce trustworthy parameters.
						out = &DegradedChunkMsg{Chunk: chunkIdx, Origins: ch.Origins, Slices: dedupSlices(a.degraded)}
					} else {
						out = &ChunkMsg{Chunk: chunkIdx, Origins: ch.Origins, Region: a.region}
					}
					emit := met.StartEmit()
					err := ctx.Send(PortOut, out)
					emit.End()
					if err != nil {
						return err
					}
					delete(pending, chunkIdx)
					done[chunkIdx] = true
				}
			}
			if len(pending) != 0 {
				return fmt.Errorf("filters: IIC copy %d ended with %d incomplete chunks", ctx.CopyIndex(), len(pending))
			}
			return nil
		})
	}
}

package filters

import (
	"errors"
	"fmt"

	"haralick4d/internal/dataset"
	"haralick4d/internal/dicom"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/sem"
	"haralick4d/internal/volume"
)

// DFRConfig configures the DICOMFileReader filter — the drop-in replacement
// for RFR that the paper names as the natural extension ("the filter
// developed to read in raw DCE-MRI data may be easily replaced by a filter
// which reads DICOM format images", §4.3). One copy runs per storage node.
type DFRConfig struct {
	Study      *dicom.Study
	Chunker    *volume.Chunker
	GrayLevels int
	// ReadAhead is the number of slices each copy keeps in flight (decode +
	// requantization) ahead of the emit loop; 0 reads synchronously,
	// reproducing the un-staged reader exactly; readahead.Auto self-sizes.
	ReadAhead int
	// ReadAheadGate, when set, overrides ReadAhead with a live-resizable
	// bound on the slices in flight over all DFR copies, moved by its maker.
	ReadAheadGate *sem.Sem
	// FaultPolicy selects what a failed slice decode does: fault.FailFast
	// (zero value) aborts the run; fault.SkipDegraded replaces the lost
	// slice with DegradedPieceMsg notices. The DICOM store carries no
	// per-slice checksums, so every decode failure counts as degraded data.
	FaultPolicy fault.Policy
	// Skip lists texture chunks whose outputs a resumed run already holds;
	// slices feeding only skipped chunks are never decoded.
	Skip map[int]bool
}

// NewDFR returns the DICOMFileReader factory. Each copy decodes the DICOM
// slices owned by its storage node through the read-ahead stage, requantizes
// them with the study-global window off the emit path, cuts each slice into
// the pieces needed by each intersecting texture chunk, and routes every
// piece explicitly to the IIC copy that assembles that chunk — the same
// stream contract as RFR, so the rest of the pipeline is unchanged.
func NewDFR(cfg DFRConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			st := cfg.Study
			iicCopies := ctx.ConsumerCopies(PortOut)
			if iicCopies == 0 {
				return fmt.Errorf("filters: DFR output not connected")
			}
			slices, err := st.NodeSlices(ctx.CopyIndex())
			if err != nil {
				return err
			}
			met := ctx.Metrics()
			X, Y := st.Dims[0], st.Dims[1]
			if len(cfg.Skip) > 0 {
				// Drop slices that feed only chunks the resume skip-set
				// covers before they reach the decode stage.
				kept := slices[:0:0] // fresh backing; NodeSlices may share its own
				for _, sf := range slices {
					for _, ch := range cfg.Chunker.SliceChunks(sf.Z, sf.T) {
						if !cfg.Skip[ch.Index] {
							kept = append(kept, sf)
							break
						}
					}
				}
				slices = kept
			}
			fetch := func(i int) (*volume.Region, error) {
				sf := slices[i]
				sp := met.StartRead()
				defer sp.End()
				pix := getU16(X * Y)
				defer putU16(pix)
				if err := st.ReadSliceInto(sf, pix); err != nil {
					return nil, fmt.Errorf("%w: dicom slice (z=%d, t=%d): %w", dataset.ErrDegradedData, sf.Z, sf.T, err)
				}
				window := getRegion(volume.Box{
					Lo: [4]int{0, 0, sf.Z, sf.T},
					Hi: [4]int{X, Y, sf.Z + 1, sf.T + 1},
				}, met)
				for i, v := range pix {
					window.Data[i] = volume.QuantizeValue(v, cfg.GrayLevels, st.Min, st.Max)
				}
				return window, nil
			}
			ra, async := startReadAhead(ctx, fetch, len(slices), 2*X*Y, cfg.ReadAhead, cfg.ReadAheadGate, 0) // the study index is in memory: no latency sample
			defer func() { met.ReadAhead(ra.Depth()); ra.Close() }()
			for i := range slices {
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
					sf := slices[i]
					if cfg.FaultPolicy != fault.SkipDegraded || !errors.Is(err, dataset.ErrDegradedData) {
						return err
					}
					box := volume.Box{
						Lo: [4]int{0, 0, sf.Z, sf.T},
						Hi: [4]int{X, Y, sf.Z + 1, sf.T + 1},
					}
					if err := emitDegraded(ctx, cfg.Chunker, sf.Z, sf.T,
						sf.T*st.Dims[2]+sf.Z, box, iicCopies, cfg.Skip); err != nil {
						return err
					}
					continue
				}
				if err := emitPieces(ctx, cfg.Chunker, slices[i].Z, slices[i].T, window, iicCopies, cfg.Skip); err != nil {
					return err
				}
				putRegion(window)
			}
			return nil
		})
	}
}

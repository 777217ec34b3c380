package filters

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

// USOConfig configures the UnstitchedOutput filter.
type USOConfig struct {
	Dir string
	// Journal, when set, receives a portion record for every parameter
	// portion persisted to the record files, making the run resumable.
	Journal *checkpoint.Journal
	// Recovered are the portions a resumed run trusts from its journal.
	// Copy 0 replays them into its record files before streaming begins, so
	// the stitched output of the resumed run covers the work of both lives.
	Recovered []checkpoint.Portion
}

// usoMagic guards the record files against format confusion.
const usoMagic = uint32(0x55534f31) // "USO1"

// NewUSO returns the UnstitchedOutput factory: it streams parameter values
// with their positional information straight to disk, one file per Haralick
// parameter per copy, for later postprocessing.
//
// Record files are written as "<name>.tmp" and renamed into place only
// after a final flush+fsync, so a crashed run never leaves a half-written
// record file that ReadUSODir would trust (the ".bin" suffix filter skips
// orphaned temporaries). With a Journal configured, every persisted portion
// is journaled; on resume, copy 0 first replays the journal's recovered
// portions so the resumed run's files cover the crashed run's work too.
func NewUSO(cfg USOConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			writers := map[features.Feature]*bufio.Writer{}
			var record []byte // encode scratch, reused for every record of this copy
			files := map[features.Feature]*os.File{}
			tmps := map[features.Feature]string{}
			defer func() {
				// Error path: close what is open and leave the .tmp files
				// behind — never renamed, so never trusted.
				for _, f := range files {
					f.Close()
				}
			}()
			get := func(ft features.Feature) (*bufio.Writer, error) {
				if w := writers[ft]; w != nil {
					return w, nil
				}
				name := fmt.Sprintf("uso_c%03d_%s.bin", ctx.CopyIndex(), ft)
				tmp := filepath.Join(cfg.Dir, name+".tmp")
				f, err := os.Create(tmp)
				if err != nil {
					return nil, fmt.Errorf("filters: %w", err)
				}
				files[ft] = f
				tmps[ft] = tmp
				w := bufio.NewWriter(f)
				writers[ft] = w
				if err := binary.Write(w, binary.LittleEndian, usoMagic); err != nil {
					return nil, fmt.Errorf("filters: %w", err)
				}
				return w, nil
			}
			if ctx.CopyIndex() == 0 {
				for _, p := range cfg.Recovered {
					w, err := get(features.Feature(p.Feature))
					if err != nil {
						return err
					}
					if err := writeUSORecord(w, &record, features.Feature(p.Feature), p.Box, p.Values); err != nil {
						return err
					}
				}
			}
			aborted := false
			for {
				m, ok := ctx.Recv()
				if !ok {
					// End of all streams — or the engine tearing the run down
					// after a failure elsewhere, which closes streams the same
					// way. Only a genuinely clean end may finalize the record
					// files; an aborted run leaves its temporaries untrusted.
					if ab, hasAb := ctx.(interface{ Aborting() bool }); hasAb && ab.Aborting() {
						aborted = true
					}
					break
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					// Nothing to persist for a degraded chunk: the record
					// files simply never cover its boxes. Duplicate records
					// from failover redelivery are harmless too — ReadUSODir
					// applies them with idempotent StoreInto overwrites.
					if cfg.Journal != nil {
						if err := cfg.Journal.AppendDegraded(dm.Chunk, dm.Origins, dm.Slices); err != nil {
							return err
						}
					}
					continue
				}
				pm, okType := m.Payload.(*ParamMsg)
				if !okType {
					return fmt.Errorf("filters: USO received %T", m.Payload)
				}
				if err := pm.Validate(); err != nil {
					return err
				}
				sp := ctx.Metrics().StartWrite()
				w, err := get(pm.Feature)
				if err != nil {
					return err
				}
				if err := writeUSORecord(w, &record, pm.Feature, pm.Box, pm.Values); err != nil {
					return err
				}
				if cfg.Journal != nil {
					// Journaled after the record write: a portion the journal
					// vouches for is always present in some record file —
					// final on a clean exit, or replayed from this very
					// journal entry on resume.
					if err := cfg.Journal.AppendPortion(int(pm.Feature), pm.Box, pm.Values); err != nil {
						return err
					}
				}
				sp.End()
				pm.Recycle()
			}
			if aborted {
				return nil // deferred close leaves only .tmp files behind
			}
			for ft, w := range writers {
				if err := w.Flush(); err != nil {
					return fmt.Errorf("filters: %w", err)
				}
				f := files[ft]
				if err := f.Sync(); err != nil {
					f.Close()
					return fmt.Errorf("filters: %w", err)
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("filters: %w", err)
				}
				delete(files, ft)
				if err := os.Rename(tmps[ft], strings.TrimSuffix(tmps[ft], ".tmp")); err != nil {
					return fmt.Errorf("filters: %w", err)
				}
			}
			return nil
		})
	}
}

// usoHeaderBytes is a record's header: the feature and the box's eight
// corners, one little-endian int32 each.
const usoHeaderBytes = 9 * 4

// writeUSORecord encodes one record — header, then the values as
// little-endian IEEE 754 bit patterns — into *scratch (grown as needed and
// kept for the next record) and hands it to w in one Write.
func writeUSORecord(w io.Writer, scratch *[]byte, ft features.Feature, box volume.Box, values []float64) error {
	n := usoHeaderBytes + 8*len(values)
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	binary.LittleEndian.PutUint32(buf, uint32(int32(ft)))
	for k := 0; k < 4; k++ {
		binary.LittleEndian.PutUint32(buf[4+4*k:], uint32(int32(box.Lo[k])))
		binary.LittleEndian.PutUint32(buf[20+4*k:], uint32(int32(box.Hi[k])))
	}
	for i, v := range values {
		binary.LittleEndian.PutUint64(buf[usoHeaderBytes+8*i:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("filters: %w", err)
	}
	return nil
}

// ReadUSODir loads every USO record file in dir and assembles the values
// into one FloatGrid per feature with the given output dimensions — the
// "postprocessing applications can then use the data stored in these files"
// path, and the test oracle for disk output.
func ReadUSODir(dir string, outDims [4]int) (map[features.Feature]*volume.FloatGrid, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("filters: %w", err)
	}
	grids := map[features.Feature]*volume.FloatGrid{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "uso_") || !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		if err := readUSOFile(filepath.Join(dir, e.Name()), outDims, grids); err != nil {
			return nil, err
		}
	}
	return grids, nil
}

func readUSOFile(path string, outDims [4]int, grids map[features.Feature]*volume.FloatGrid) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("filters: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("filters: %s: %w", path, err)
	}
	if magic != usoMagic {
		return fmt.Errorf("filters: %s: bad magic %#x", path, magic)
	}
	for {
		hdr := make([]int32, 9)
		if err := binary.Read(r, binary.LittleEndian, hdr); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("filters: %s: %w", path, err)
		}
		ft := features.Feature(hdr[0])
		if ft < 0 || int(ft) >= features.NumFeatures {
			return fmt.Errorf("filters: %s: invalid feature %d", path, hdr[0])
		}
		var box volume.Box
		for k := 0; k < 4; k++ {
			box.Lo[k] = int(hdr[1+k])
			box.Hi[k] = int(hdr[5+k])
		}
		vals := make([]float64, box.NumVoxels())
		if err := binary.Read(r, binary.LittleEndian, vals); err != nil {
			return fmt.Errorf("filters: %s: truncated record: %w", path, err)
		}
		g := grids[ft]
		if g == nil {
			g = volume.NewFloatGrid(outDims)
			grids[ft] = g
		}
		fr := &volume.FloatRegion{Box: box, Data: vals}
		fr.StoreInto(g)
	}
}

// HICConfig configures the HaralickImageConstructor filter.
type HICConfig struct {
	OutDims [4]int
}

// NewHIC returns the HaralickImageConstructor factory: the output stitch
// that places parameter output portions into their positions until a
// complete 4D dataset per Haralick parameter is built, then passes each
// assembled dataset (with its value range) downstream.
func NewHIC(cfg HICConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			type assembly struct {
				grid      *volume.FloatGrid
				remaining int
				seen      map[volume.Box]bool // failover redelivery dedupe
			}
			total := volume.NumVoxels(cfg.OutDims)
			pending := map[features.Feature]*assembly{}
			done := map[features.Feature]bool{}
			// Degraded chunks shrink every feature's completion target; the
			// grid simply keeps zeros over their boxes. Notices are deduped
			// by chunk id (explicit fan-out plus redelivery can repeat them).
			degChunks := map[int]bool{}
			degTotal := 0
			finish := func(ft features.Feature, a *assembly) error {
				lo, hi := a.grid.MinMax()
				out := &AssembledMsg{Feature: ft, Grid: a.grid, Min: lo, Max: hi}
				emit := ctx.Metrics().StartEmit()
				err := ctx.Send(PortOut, out)
				emit.End()
				if err != nil {
					return err
				}
				delete(pending, ft)
				done[ft] = true
				return nil
			}
			for {
				m, ok := ctx.Recv()
				if !ok {
					break
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					if degChunks[dm.Chunk] {
						continue
					}
					degChunks[dm.Chunk] = true
					v := dm.Origins.NumVoxels()
					degTotal += v
					// Shrink in-flight assemblies too; one may complete now.
					for ft, a := range pending {
						a.remaining -= v
						if a.remaining == 0 {
							if err := finish(ft, a); err != nil {
								return err
							}
						}
					}
					continue
				}
				pm, okType := m.Payload.(*ParamMsg)
				if !okType {
					return fmt.Errorf("filters: HIC received %T", m.Payload)
				}
				if err := pm.Validate(); err != nil {
					return err
				}
				if done[pm.Feature] {
					pm.Recycle() // redelivered duplicate of a finished feature
					continue
				}
				met := ctx.Metrics()
				sp := met.StartAssemble()
				a := pending[pm.Feature]
				if a == nil {
					a = &assembly{grid: volume.NewFloatGrid(cfg.OutDims), remaining: total - degTotal, seen: map[volume.Box]bool{}}
					pending[pm.Feature] = a
				}
				if a.seen[pm.Box] {
					sp.End()
					pm.Recycle()
					continue
				}
				a.seen[pm.Box] = true
				fr := &volume.FloatRegion{Box: pm.Box, Data: pm.Values}
				fr.StoreInto(a.grid)
				a.remaining -= pm.Box.NumVoxels()
				sp.End()
				if a.remaining < 0 {
					return fmt.Errorf("filters: HIC received overlapping portions for %v", pm.Feature)
				}
				ft := pm.Feature
				pm.Recycle() // values copied into the grid above
				if a.remaining == 0 {
					if err := finish(ft, a); err != nil {
						return err
					}
				}
			}
			if len(pending) != 0 {
				return fmt.Errorf("filters: HIC copy %d ended with %d incomplete parameters", ctx.CopyIndex(), len(pending))
			}
			return nil
		})
	}
}

// JIWConfig configures the JPGImageWriter filter.
type JIWConfig struct {
	Dir     string
	Quality int // JPEG quality, default 90
}

// NewJIW returns the JPGImageWriter factory: each assembled 4D parameter
// dataset is normalized to [0, 1] using its min/max (zero → black, one →
// white) and written as a series of 2D JPEG images, one per (z, t).
func NewJIW(cfg JIWConfig) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			quality := cfg.Quality
			if quality <= 0 {
				quality = 90
			}
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				am, okType := m.Payload.(*AssembledMsg)
				if !okType {
					return fmt.Errorf("filters: JIW received %T", m.Payload)
				}
				sp := ctx.Metrics().StartWrite()
				dims := am.Grid.Dims
				scale := 0.0
				if am.Max > am.Min {
					scale = 255 / (am.Max - am.Min)
				}
				for t := 0; t < dims[3]; t++ {
					for z := 0; z < dims[2]; z++ {
						img := image.NewGray(image.Rect(0, 0, dims[0], dims[1]))
						for y := 0; y < dims[1]; y++ {
							for x := 0; x < dims[0]; x++ {
								v := (am.Grid.At(x, y, z, t) - am.Min) * scale
								img.SetGray(x, y, color8(v))
							}
						}
						name := fmt.Sprintf("%s_t%04d_z%04d.jpg", am.Feature, t, z)
						if err := writeJPEG(filepath.Join(cfg.Dir, name), img, quality); err != nil {
							return err
						}
					}
				}
				sp.End()
			}
		})
	}
}

func color8(v float64) color.Gray {
	if v < 0 {
		v = 0
	}
	if v > 255 {
		v = 255
	}
	return color.Gray{Y: uint8(math.Round(v))}
}

// writeJPEG persists one image atomically: encode into a temporary, fsync,
// then rename into place, so a crash mid-encode never leaves a truncated
// JPEG under the final name.
func writeJPEG(path string, img image.Image, quality int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("filters: %w", err)
	}
	if err := jpeg.Encode(f, img, &jpeg.Options{Quality: quality}); err != nil {
		f.Close()
		return fmt.Errorf("filters: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("filters: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("filters: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("filters: %w", err)
	}
	return nil
}

// Results accumulates assembled feature grids in memory; it is the shared
// sink behind the Collector filter and the library's return value.
type Results struct {
	mu     sync.Mutex
	dims   [4]int
	grids  map[features.Feature]*volume.FloatGrid
	filled map[features.Feature]int
	// seen dedupes exact portion boxes per feature: under copy failover the
	// runtime redelivers in-flight buffers of crashed copies, so a sink may
	// legitimately see the same portion twice. A *different* overlapping box
	// still overfills — that remains a routing bug worth failing on. A
	// feature's map is dropped once the feature completes (completed takes
	// over late-duplicate suppression), so long runs don't retain a box
	// entry for every portion ever assembled.
	seen      map[features.Feature]map[volume.Box]bool
	completed map[features.Feature]bool
	// jour, when set, receives a record for every applied portion and
	// degraded notice, making the collected results resumable.
	jour *checkpoint.Journal
	// Degraded-chunk bookkeeping (SkipDegraded runs): chunk id → its ROI
	// origin box, plus the union of lost slice ids. Origins partition the
	// output space, so their voxel counts sum exactly.
	degChunks map[int]volume.Box
	degSlices map[int]bool
	degVoxels int
}

// NewResults returns an empty result sink for the given output dimensions.
func NewResults(outDims [4]int) *Results {
	return &Results{
		dims:      outDims,
		grids:     map[features.Feature]*volume.FloatGrid{},
		filled:    map[features.Feature]int{},
		seen:      map[features.Feature]map[volume.Box]bool{},
		completed: map[features.Feature]bool{},
		degChunks: map[int]volume.Box{},
		degSlices: map[int]bool{},
	}
}

// SetJournal attaches a progress journal: from now on every applied portion
// and degraded notice is journaled before it counts as collected.
func (r *Results) SetJournal(j *checkpoint.Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jour = j
}

// Restore seeds the sink with the portions and degraded notices recovered
// from a journal, exactly as if the original run had delivered them —
// without re-journaling. Called before the resumed pipeline starts.
func (r *Results) Restore(st *checkpoint.State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range st.Degraded {
		if _, dup := r.degChunks[d.Chunk]; dup {
			continue
		}
		r.degChunks[d.Chunk] = d.Origins
		r.degVoxels += d.Origins.NumVoxels()
		for _, s := range d.Slices {
			r.degSlices[s] = true
		}
	}
	for _, p := range st.Portions {
		ft := features.Feature(p.Feature)
		if ft < 0 || int(ft) >= features.NumFeatures {
			return fmt.Errorf("filters: restored portion has invalid feature %d", p.Feature)
		}
		if err := r.applyLocked(ft, p.Box, p.Values); err != nil {
			return err
		}
	}
	return nil
}

// applyLocked stores one portion (deduplicated) and retires the feature's
// dedupe map when it completes. Caller holds r.mu.
func (r *Results) applyLocked(ft features.Feature, box volume.Box, values []float64) error {
	if r.completed[ft] {
		return nil // late duplicate of a finished feature
	}
	boxes := r.seen[ft]
	if boxes == nil {
		boxes = map[volume.Box]bool{}
		r.seen[ft] = boxes
	}
	if boxes[box] {
		return nil
	}
	boxes[box] = true
	g := r.grids[ft]
	if g == nil {
		g = volume.NewFloatGrid(r.dims)
		r.grids[ft] = g
	}
	fr := &volume.FloatRegion{Box: box, Data: values}
	fr.StoreInto(g)
	r.filled[ft] += box.NumVoxels()
	if r.filled[ft] > volume.NumVoxels(r.dims) {
		return fmt.Errorf("filters: feature %v overfilled", ft)
	}
	r.sweepCompleteLocked(ft)
	return nil
}

// sweepCompleteLocked retires a feature's per-box dedupe map once the
// feature is fully accounted for (assembled plus degraded voxels cover the
// output): any portion arriving later is by construction a duplicate, so
// the completed flag alone suppresses it and the map's memory is released.
func (r *Results) sweepCompleteLocked(ft features.Feature) {
	if r.completed[ft] {
		return
	}
	if r.filled[ft]+r.degVoxels == volume.NumVoxels(r.dims) {
		r.completed[ft] = true
		delete(r.seen, ft)
	}
}

// add applies one parameter portion. Exact duplicates (failover redelivery)
// are skipped silently.
func (r *Results) add(pm *ParamMsg) error {
	if err := pm.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jour != nil && !r.completed[pm.Feature] {
		if err := r.jour.AppendPortion(int(pm.Feature), pm.Box, pm.Values); err != nil {
			return err
		}
	}
	return r.applyLocked(pm.Feature, pm.Box, pm.Values)
}

// markDegraded records one degraded-chunk notice, deduplicating by chunk id
// (redelivery can repeat notices too).
func (r *Results) markDegraded(dm *DegradedChunkMsg) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.degChunks[dm.Chunk]; dup {
		return nil
	}
	if r.jour != nil {
		if err := r.jour.AppendDegraded(dm.Chunk, dm.Origins, dm.Slices); err != nil {
			return err
		}
	}
	r.degChunks[dm.Chunk] = dm.Origins
	r.degVoxels += dm.Origins.NumVoxels()
	for _, s := range dm.Slices {
		r.degSlices[s] = true
	}
	// The surrendered voxels may be the last thing a feature was waiting
	// for; re-check every in-flight feature against the new target.
	for ft := range r.filled {
		r.sweepCompleteLocked(ft)
	}
	return nil
}

// Grid returns the assembled grid for one feature (nil if absent).
func (r *Results) Grid(f features.Feature) *volume.FloatGrid {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.grids[f]
}

// Degraded reports what SkipDegraded dropped: the sorted lost slice ids, the
// affected chunks' ROI-origin boxes (in chunk-id order) and the total output
// voxels left unfilled per feature. All zero/empty on a clean run.
func (r *Results) Degraded() (slices []int, rois []volume.Box, voxels int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.degChunks) == 0 {
		return nil, nil, 0
	}
	chunkIDs := make([]int, 0, len(r.degChunks))
	for id := range r.degChunks {
		chunkIDs = append(chunkIDs, id)
	}
	sort.Ints(chunkIDs)
	rois = make([]volume.Box, len(chunkIDs))
	for i, id := range chunkIDs {
		rois[i] = r.degChunks[id]
	}
	slices = make([]int, 0, len(r.degSlices))
	for s := range r.degSlices {
		slices = append(slices, s)
	}
	sort.Ints(slices)
	return slices, rois, r.degVoxels
}

// Complete checks that every feature in want is fully assembled, allowing
// for output voxels explicitly surrendered to degraded chunks.
func (r *Results) Complete(want []features.Feature) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := volume.NumVoxels(r.dims)
	for _, f := range want {
		if r.filled[f]+r.degVoxels != total {
			return fmt.Errorf("filters: feature %v has %d/%d values", f, r.filled[f], total-r.degVoxels)
		}
	}
	return nil
}

// NewCollector returns the in-memory output sink factory. All copies write
// into the same Results (synchronized).
func NewCollector(res *Results) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if dm, isDegraded := m.Payload.(*DegradedChunkMsg); isDegraded {
					if err := res.markDegraded(dm); err != nil {
						return err
					}
					continue
				}
				pm, okType := m.Payload.(*ParamMsg)
				if !okType {
					return fmt.Errorf("filters: Collector received %T", m.Payload)
				}
				sp := ctx.Metrics().StartWrite()
				err := res.add(pm)
				sp.End()
				if err != nil {
					return err
				}
				pm.Recycle() // values copied into the shared results above
			}
		})
	}
}

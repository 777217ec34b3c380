package pipeline

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// degradedDims has enough z/t extent that a few lost slices poison some
// chunks without touching every chunk's halo.
var degradedDims = [4]int{24, 20, 6, 8}

// corruptDataset writes a phantom study and then damages a few slice files,
// returning the dataset directory and the damaged files. 48 slices * 0.07 =
// 3 victims: one byte flip (checksum-detected), one truncation, one
// deletion.
func corruptDataset(t *testing.T) (string, []string) {
	return corruptEncoded(t, dataset.EncodingRaw)
}

// corruptEncoded is corruptDataset in the given slice encoding; the damage
// schedule depends only on the corruption seed, so it hits the same slices
// in every encoding.
func corruptEncoded(t *testing.T, enc dataset.Encoding) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	v := synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17})
	if _, err := dataset.WriteDistributed(dir, v, 3, dataset.RoundRobinDist, enc); err != nil {
		t.Fatal(err)
	}
	damaged, err := dataset.CorruptSlices(dir, 0.07, 5)
	if err != nil {
		t.Fatal(err)
	}
	return dir, damaged
}

// damagedIDs maps the damaged slice files to their slice ids, sorted.
func damagedIDs(t *testing.T, st *dataset.Store, damaged []string) []int {
	t.Helper()
	var ids []int
	for _, f := range damaged {
		var tt, z int
		if _, err := fmt.Sscanf(filepath.Base(f), "slice_t%04d_z%04d", &tt, &z); err != nil {
			t.Fatalf("damaged file %q: %v", f, err)
		}
		ids = append(ids, dataset.SliceID(&st.Meta, z, tt))
	}
	sort.Ints(ids)
	return ids
}

// corruptStore writes a phantom study and then damages a few slice files,
// returning the store and the damaged slice ids.
func corruptStore(t *testing.T) (*dataset.Store, []int) {
	t.Helper()
	dir, damaged := corruptDataset(t)
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, damagedIDs(t, st, damaged)
}

func TestFailFastOnCorruptData(t *testing.T) {
	st, _ := corruptStore(t)
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin) // FailFast default
	g, _, _, err := Build(st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, EngineLocal, nil)
	if !errors.Is(err, dataset.ErrDegradedData) {
		t.Fatalf("fail-fast run err = %v, want ErrDegradedData", err)
	}
	if !errors.Is(err, filter.ErrCopyFailed) {
		t.Fatalf("fail-fast run err = %v, want ErrCopyFailed in chain", err)
	}
}

// TestSkipDegradedMatchesCleanOracle is the degraded-mode acceptance check:
// with corrupt slices and FaultPolicy SkipDegraded the run completes, every
// output voxel outside the reported degraded ROIs is bit-identical to the
// clean run, and the report accounts exactly for the poisoned chunks.
func TestSkipDegradedMatchesCleanOracle(t *testing.T) {
	cleanDir := t.TempDir()
	if _, err := dataset.Write(cleanDir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 3); err != nil {
		t.Fatal(err)
	}
	clean, err := dataset.Open(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	ref, err := Sequential(clean, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, readAhead := range []int{0, 3} {
		t.Run(fmt.Sprintf("readahead=%d", readAhead), func(t *testing.T) {
			st, wantSlices := corruptStore(t)
			cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
			cfg.ReadAhead = readAhead
			cfg.FaultPolicy = fault.SkipDegraded
			g, res, outDims, err := Build(st, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(g, EngineLocal, nil); err != nil {
				t.Fatalf("skip-degraded run: %v", err)
			}
			if err := res.Complete(cfg.Analysis.Features); err != nil {
				t.Fatalf("degraded accounting: %v", err)
			}
			slices, rois, voxels := res.Degraded()
			if !reflect.DeepEqual(slices, wantSlices) {
				t.Errorf("degraded slices = %v, want %v", slices, wantSlices)
			}
			if len(rois) == 0 || voxels == 0 {
				t.Fatalf("no degraded ROIs reported (rois %v, voxels %d)", rois, voxels)
			}
			sum := 0
			for _, b := range rois {
				sum += b.NumVoxels()
			}
			if sum != voxels {
				t.Errorf("voxel accounting: rois sum to %d, reported %d", sum, voxels)
			}
			// Every ROI must correspond to a chunk that intersects a damaged
			// slice; every output voxel outside the ROIs must match the clean
			// oracle bit-for-bit, and inside them stay unwritten.
			damaged := map[int]bool{}
			for _, id := range wantSlices {
				damaged[id] = true
			}
			chunker, err := volume.NewChunker(st.Meta.Dims, cfg.ChunkShape, cfg.Analysis.ROI)
			if err != nil {
				t.Fatal(err)
			}
			for _, roi := range rois {
				hit := false
				for _, ch := range chunker.Chunks() {
					if ch.Origins != roi {
						continue
					}
					for tt := ch.Voxels.Lo[3]; tt < ch.Voxels.Hi[3]; tt++ {
						for z := ch.Voxels.Lo[2]; z < ch.Voxels.Hi[2]; z++ {
							if damaged[dataset.SliceID(&st.Meta, z, tt)] {
								hit = true
							}
						}
					}
				}
				if !hit {
					t.Errorf("degraded ROI %v intersects no damaged slice", roi)
				}
			}
			inROI := func(p [4]int) bool {
				for _, b := range rois {
					if b.Contains(p) {
						return true
					}
				}
				return false
			}
			for _, f := range cfg.Analysis.Features {
				got := res.Grid(f)
				want := ref[f]
				if got == nil || got.Dims != outDims {
					t.Fatalf("%v: grid missing or wrong dims", f)
				}
				for tt := 0; tt < outDims[3]; tt++ {
					for z := 0; z < outDims[2]; z++ {
						for y := 0; y < outDims[1]; y++ {
							for x := 0; x < outDims[0]; x++ {
								if inROI([4]int{x, y, z, tt}) {
									if v := got.At(x, y, z, tt); v != 0 {
										t.Fatalf("%v: degraded voxel (%d,%d,%d,%d) written: %v", f, x, y, z, tt, v)
									}
									continue
								}
								if g, w := got.At(x, y, z, tt), want.At(x, y, z, tt); g != w {
									t.Fatalf("%v: clean voxel (%d,%d,%d,%d) = %v, want %v", f, x, y, z, tt, g, w)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestSkipDegradedDICOMMatchesRaw: the same damage schedule on a raw and a
// DICOM copy of one study loses the same slices under SkipDegraded, and the
// two runs' outputs are identical, healthy voxels and zeroed ones alike.
func TestSkipDegradedDICOMMatchesRaw(t *testing.T) {
	run := func(enc dataset.Encoding) ([]int, *filters.Results) {
		dir, damaged := corruptEncoded(t, enc)
		st, err := dataset.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg := testConfig(SplitImpl, core.SparseMatrix, filter.DemandDriven)
		cfg.FaultPolicy = fault.SkipDegraded
		g, res, _, err := Build(st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(g, EngineLocal, nil); err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		slices, _, _ := res.Degraded()
		if want := damagedIDs(t, st, damaged); !reflect.DeepEqual(slices, want) {
			t.Errorf("%v: degraded slices = %v, want %v", enc, slices, want)
		}
		return slices, res
	}
	rawSlices, raw := run(dataset.EncodingRaw)
	dcmSlices, dcm := run(dataset.EncodingDICOM)
	if !reflect.DeepEqual(rawSlices, dcmSlices) {
		t.Fatalf("lost slices: raw %v, DICOM %v", rawSlices, dcmSlices)
	}
	for _, f := range features.PaperSet() {
		gridsEqual(t, f.String(), raw.Grid(f), dcm.Grid(f))
	}
}

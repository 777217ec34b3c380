package dicom_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haralick4d/internal/dataset"
	"haralick4d/internal/dicom"
	"haralick4d/internal/volume"
)

// The DICOM slice encoding as the dataset package writes and reads it.

func randomVolume(seed int64, dims [4]int) *volume.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := volume.NewVolume(dims)
	for i := range v.Data {
		v.Data[i] = uint16(rng.Intn(3000) + 50)
	}
	return v
}

// writeDICOM writes v as a DICOM dataset under a fresh directory and opens it.
func writeDICOM(t *testing.T, v *volume.Volume, nodes int) (string, *dataset.Store) {
	t.Helper()
	dir := t.TempDir()
	if _, err := dataset.WriteDistributed(dir, v, nodes, dataset.RoundRobinDist, dataset.EncodingDICOM); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return dir, st
}

// TestStudyRoundTrip reads a DICOM study back whole through a local and an
// in-memory backend; every object's window carries the header's range.
func TestStudyRoundTrip(t *testing.T) {
	v := randomVolume(5, [4]int{10, 8, 3, 4})
	dir, _ := writeDICOM(t, v, 3)
	mem, _, err := dataset.WriteMemDatasetDistributed(v, 3, dataset.RoundRobinDist, dataset.EncodingDICOM)
	if err != nil {
		t.Fatal(err)
	}
	dataset.RegisterMem("dicom-study", mem)
	defer dataset.UnregisterMem("dicom-study")
	lo, hi := v.MinMax()
	for _, url := range []string{"file://" + dir, "mem://dicom-study"} {
		st, err := dataset.OpenURL(context.Background(), url, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if st.Meta.Encoding != dataset.EncodingDICOM || st.Meta.Min != lo || st.Meta.Max != hi {
			t.Fatalf("%s: header %+v", url, st.Meta)
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		back, err := st.ReadVolume()
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		for i := range v.Data {
			if back.Data[i] != v.Data[i] {
				t.Fatalf("%s: voxel %d: %d != %d", url, i, back.Data[i], v.Data[i])
			}
		}
	}
	refs, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer refs.Close()
	idx, err := refs.NodeIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "node001", idx[0].File))
	if err != nil {
		t.Fatal(err)
	}
	img, err := dicom.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if img.WindowCenter-img.WindowWidth/2 != float64(lo) || img.WindowCenter+img.WindowWidth/2 != float64(hi) {
		t.Errorf("window %v±%v/2, header range [%d, %d]", img.WindowCenter, img.WindowWidth, lo, hi)
	}
	if img.Acquisition != idx[0].T || img.SliceLocation != float64(idx[0].Z) {
		t.Errorf("%s carries (z=%v, t=%d)", idx[0].File, img.SliceLocation, img.Acquisition)
	}
}

// replaceSlice overwrites a slice object and, when fixCRC is set, its index
// checksum, so only the decoder can tell the new bytes apart.
func replaceSlice(t *testing.T, dir string, ref dataset.SliceRef, data []byte, fixCRC bool) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "node000", ref.File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if !fixCRC {
		return
	}
	idxPath := filepath.Join(dir, "node000", "index.txt")
	idx, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	old := fmt.Sprintf("%s %d %d %08x", ref.File, ref.T, ref.Z, ref.CRC)
	crc := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	fixed := strings.Replace(string(idx), old, fmt.Sprintf("%s %d %d %08x", ref.File, ref.T, ref.Z, crc), 1)
	if fixed == string(idx) {
		t.Fatalf("index line %q not found", old)
	}
	if err := os.WriteFile(idxPath, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTransposedSliceIsDegraded: a slice with the dataset's pixel count but
// Rows and Cols swapped, under a matching checksum, is degraded data; the
// other slices still read.
func TestTransposedSliceIsDegraded(t *testing.T) {
	v := randomVolume(7, [4]int{6, 4, 1, 2})
	dir, st := writeDICOM(t, v, 1)
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	var odd bytes.Buffer
	if err := dicom.Encode(&odd, &dicom.Image{Rows: 6, Cols: 4, Pixels: make([]byte, 2*24)}); err != nil {
		t.Fatal(err)
	}
	replaceSlice(t, dir, refs[1], odd.Bytes(), true)
	st, err = dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	refs, err = st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadSlice(0, refs[1]); !errors.Is(err, dataset.ErrDegradedData) || !strings.Contains(err.Error(), "is 4x6") {
		t.Errorf("transposed slice: err = %v, want degraded geometry", err)
	}
	if err := st.ReadSliceRegionIntoContext(context.Background(), 0, refs[1], 0, 2, 0, 2, make([]uint16, 4)); !errors.Is(err, dataset.ErrDegradedData) {
		t.Errorf("transposed slice window: err = %v, want degraded", err)
	}
	if _, err := st.ReadSlice(0, refs[0]); err != nil {
		t.Errorf("healthy slice: %v", err)
	}
}

// TestDICOMDatasetErrors: a missing object, one that does not end inside
// the one read of its geometry, and one that does not decode are all
// degraded data, with or without a checksum to catch them first.
func TestDICOMDatasetErrors(t *testing.T) {
	v := randomVolume(6, [4]int{6, 6, 2, 2})
	dir, st := writeDICOM(t, v, 1)
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "node000", refs[1].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "node000", refs[0].File)); err != nil {
		t.Fatal(err)
	}
	oversize := append(append([]byte{}, good...), make([]byte, dicom.HeaderAllowance)...)
	replaceSlice(t, dir, refs[1], oversize, true)
	garbage := bytes.Repeat([]byte{0xAB}, len(good))
	replaceSlice(t, dir, refs[2], garbage, true)
	replaceSlice(t, dir, refs[3], good[:len(good)/2], false)
	st, err = dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	refs, err = st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"no such file", "is not", "DICM magic", "checksum mismatch"} {
		if _, err := st.ReadSlice(0, refs[i]); !errors.Is(err, dataset.ErrDegradedData) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want degraded %q", refs[i].File, err, want)
		}
	}
	if _, err := st.ReadVolume(); !errors.Is(err, dataset.ErrDegradedData) {
		t.Errorf("ReadVolume err = %v, want degraded", err)
	}
}

package dataset

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"haralick4d/internal/volume"
)

func randomVolume(seed int64, dims [4]int) *volume.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := volume.NewVolume(dims)
	for i := range v.Data {
		v.Data[i] = uint16(rng.Intn(4000) + 100)
	}
	return v
}

func writeTemp(t *testing.T, v *volume.Volume, nodes int) (*Store, *Meta) {
	t.Helper()
	dir := t.TempDir()
	meta, err := Write(dir, v, nodes)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, meta
}

func TestWriteReadRoundTrip(t *testing.T) {
	v := randomVolume(1, [4]int{8, 6, 4, 5})
	st, meta := writeTemp(t, v, 3)
	if meta.Dims != v.Dims || meta.Nodes != 3 {
		t.Fatalf("meta = %+v", meta)
	}
	lo, hi := v.MinMax()
	if meta.Min != lo || meta.Max != hi {
		t.Errorf("meta range = [%d, %d], want [%d, %d]", meta.Min, meta.Max, lo, hi)
	}
	back, err := st.ReadVolume()
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if back.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %d != %d", i, back.Data[i], v.Data[i])
		}
	}
	if err := st.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: round-robin declustering balances slices within one slice per
// node and every slice lands on OwnerNode, for any node count.
func TestDistributionBalanceProperty(t *testing.T) {
	v := randomVolume(2, [4]int{4, 4, 3, 4}) // 12 slices
	f := func(nodesRaw uint8) bool {
		nodes := int(nodesRaw%6) + 1
		dir, err := os.MkdirTemp("", "ds")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		if _, err := Write(dir, v, nodes); err != nil {
			return false
		}
		st, err := Open(dir)
		if err != nil {
			return false
		}
		if st.Validate() != nil {
			return false
		}
		counts := make([]int, nodes)
		for n := 0; n < nodes; n++ {
			refs, err := st.NodeIndex(n)
			if err != nil {
				return false
			}
			counts[n] = len(refs)
		}
		lo, hi := counts[0], counts[0]
		total := 0
		for _, c := range counts {
			total += c
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return total == 12 && hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// readRegion reads a slice window into a fresh buffer of its size.
func readRegion(st *Store, node int, ref SliceRef, x0, x1, y0, y1 int) ([]uint16, error) {
	out := make([]uint16, max(x1-x0, 0)*max(y1-y0, 0))
	return out, st.ReadSliceRegionIntoContext(context.Background(), node, ref, x0, x1, y0, y1, out)
}

func TestReadSliceRegion(t *testing.T) {
	v := randomVolume(3, [4]int{10, 8, 2, 2})
	st, meta := writeTemp(t, v, 2)
	z, tt := 1, 1
	node := OwnerNode(meta, z, tt)
	ref := SliceRef{File: SliceFileName(z, tt), Z: z, T: tt}
	got, err := readRegion(st, node, ref, 2, 7, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := 5
	for y := 3; y < 6; y++ {
		for x := 2; x < 7; x++ {
			want := v.At(x, y, z, tt)
			if got[(y-3)*w+(x-2)] != want {
				t.Fatalf("region voxel (%d,%d) = %d, want %d", x, y, got[(y-3)*w+(x-2)], want)
			}
		}
	}
	// Bad regions.
	for _, r := range [][4]int{{-1, 5, 0, 2}, {0, 11, 0, 2}, {3, 3, 0, 2}, {0, 2, 5, 3}} {
		if _, err := readRegion(st, node, ref, r[0], r[1], r[2], r[3]); err == nil {
			t.Errorf("bad region %v accepted", r)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("missing header accepted")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "dataset.json"), []byte("{garbage"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupt header accepted")
	}
	os.WriteFile(filepath.Join(dir, "dataset.json"), []byte(`{"version":99,"dims":[1,1,1,1],"nodes":1}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("wrong version accepted")
	}
	os.WriteFile(filepath.Join(dir, "dataset.json"), []byte(`{"version":1,"dims":[0,1,1,1],"nodes":1}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("zero dims accepted")
	}
	os.WriteFile(filepath.Join(dir, "dataset.json"), []byte(`{"version":1,"dims":[1,1,1,1],"nodes":1,"encoding":"tiff"}`), 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), `unknown slice encoding "tiff"`) {
		t.Errorf("unknown encoding: err = %v", err)
	}
}

func TestWriteErrors(t *testing.T) {
	v := randomVolume(4, [4]int{2, 2, 1, 1})
	for _, enc := range []Encoding{EncodingRaw, EncodingDICOM} {
		if _, err := WriteDistributed(t.TempDir(), v, 0, RoundRobinDist, enc); err == nil {
			t.Errorf("%v: zero nodes accepted", enc)
		}
	}
	if _, err := WriteDistributed(t.TempDir(), v, 1, RoundRobinDist, Encoding("tiff")); err == nil {
		t.Error("unknown encoding accepted")
	}
	// The writer refuses what the reader would: more nodes than slices.
	if _, err := WriteDistributed(t.TempDir(), v, 2, RoundRobinDist, EncodingRaw); err == nil {
		t.Error("two nodes for one slice accepted")
	}
}

// TestEncodingHeader: a raw header carries no encoding key, so raw headers
// stay byte-identical to those written before encodings existed; a DICOM
// header names its encoding, and the format names round-trip.
func TestEncodingHeader(t *testing.T) {
	v := randomVolume(8, [4]int{3, 2, 2, 1})
	for _, enc := range []Encoding{EncodingRaw, EncodingDICOM} {
		dir := t.TempDir()
		if _, err := WriteDistributed(dir, v, 1, RoundRobinDist, enc); err != nil {
			t.Fatal(err)
		}
		hdr, err := os.ReadFile(filepath.Join(dir, "dataset.json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(hdr), `"encoding"`); got != (enc == EncodingDICOM) {
			t.Errorf("%v header %s", enc, hdr)
		}
		if back, err := ParseEncoding(enc.String()); err != nil || back != enc {
			t.Errorf("ParseEncoding(%q) = %q, %v", enc.String(), back, err)
		}
	}
	if _, err := ParseEncoding("tiff"); err == nil {
		t.Error("unknown format name accepted")
	}
}

func TestNodeIndexErrors(t *testing.T) {
	v := randomVolume(5, [4]int{4, 4, 2, 2})
	st, _ := writeTemp(t, v, 2)
	if _, err := st.NodeIndex(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := st.NodeIndex(2); err == nil {
		t.Error("out-of-range node accepted")
	}
	// Corrupt an index line.
	path := filepath.Join(st.NodeDir(0), "index.txt")
	os.WriteFile(path, []byte("bad line without numbers\n"), 0o644)
	if _, err := st.NodeIndex(0); err == nil {
		t.Error("corrupt index accepted")
	}
	os.WriteFile(path, []byte("f.raw 99 0\n"), 0o644)
	if _, err := st.NodeIndex(0); err == nil {
		t.Error("out-of-range slice ref accepted")
	}
}

func TestValidateDetectsMisplacedSlice(t *testing.T) {
	v := randomVolume(6, [4]int{4, 4, 2, 2})
	st, _ := writeTemp(t, v, 2)
	// Claim a slice on the wrong node.
	idx0 := filepath.Join(st.NodeDir(0), "index.txt")
	raw, err := os.ReadFile(filepath.Join(st.NodeDir(1), "index.txt"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(idx0)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(idx0, append(orig, raw...), 0o644)
	if err := st.Validate(); err == nil {
		t.Error("misplaced/duplicate slices not detected")
	}
}

func TestReadSliceSizeCheck(t *testing.T) {
	v := randomVolume(7, [4]int{4, 4, 1, 1})
	st, meta := writeTemp(t, v, 1)
	ref := SliceRef{File: SliceFileName(0, 0), Z: 0, T: 0}
	// Truncate the slice file.
	path := filepath.Join(st.NodeDir(0), ref.File)
	os.WriteFile(path, []byte{1, 2, 3}, 0o644)
	if _, err := st.ReadSlice(0, ref); err == nil {
		t.Error("truncated slice accepted")
	}
	_ = meta
}

func TestSliceIDAndOwner(t *testing.T) {
	meta := &Meta{Dims: [4]int{4, 4, 8, 3}, Nodes: 3}
	if SliceID(meta, 2, 1) != 10 {
		t.Errorf("SliceID = %d, want 10", SliceID(meta, 2, 1))
	}
	if OwnerNode(meta, 2, 1) != 10%3 {
		t.Error("OwnerNode mismatch")
	}
}

func TestDistributions(t *testing.T) {
	v := randomVolume(11, [4]int{4, 4, 3, 4}) // 12 slices
	for _, dist := range []Distribution{RoundRobinDist, BlockDist, SliceModDist} {
		dir := t.TempDir()
		meta, err := WriteDistributed(dir, v, 3, dist, EncodingRaw)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Dist != dist {
			t.Errorf("%v: meta.Dist = %v", dist, meta.Dist)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Validate(); err != nil {
			t.Errorf("%v: %v", dist, err)
		}
		back, err := st.ReadVolume()
		if err != nil {
			t.Fatal(err)
		}
		for i := range v.Data {
			if back.Data[i] != v.Data[i] {
				t.Fatalf("%v: voxel %d differs", dist, i)
			}
		}
	}
	if _, err := WriteDistributed(t.TempDir(), v, 2, Distribution(9), EncodingRaw); err == nil {
		t.Error("invalid distribution accepted")
	}
}

func TestDistributionStringParse(t *testing.T) {
	for _, d := range []Distribution{RoundRobinDist, BlockDist, SliceModDist} {
		got, err := ParseDistribution(d.String())
		if err != nil || got != d {
			t.Errorf("round trip %v", d)
		}
	}
	if _, err := ParseDistribution("nope"); err == nil {
		t.Error("bogus distribution accepted")
	}
	if Distribution(9).String() != "distribution(9)" {
		t.Error("unknown distribution String")
	}
}

func TestBlockDistOwnersContiguous(t *testing.T) {
	meta := &Meta{Dims: [4]int{2, 2, 4, 4}, Nodes: 4, Dist: BlockDist}
	prev := -1
	for t0 := 0; t0 < 4; t0++ {
		for z := 0; z < 4; z++ {
			n := OwnerNode(meta, z, t0)
			if n < prev {
				t.Fatalf("block owners not monotone: slice (z=%d,t=%d) on %d after %d", z, t0, n, prev)
			}
			prev = n
		}
	}
	if prev != 3 {
		t.Errorf("last node %d, want 3", prev)
	}
}

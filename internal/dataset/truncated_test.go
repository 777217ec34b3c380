package dataset

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadSliceRegionTruncatedFile is the regression test for the
// short-read bug: ReadAt on a truncated slice file returns io.EOF with a
// partial row, which an earlier version ignored — the affected rows came
// back silently zeroed. Every row touching the truncation point must now
// fail with an error naming the file and row.
func TestReadSliceRegionTruncatedFile(t *testing.T) {
	v := randomVolume(11, [4]int{10, 8, 2, 2})
	st, meta := writeTemp(t, v, 1)
	z, tt := 0, 1
	node := OwnerNode(meta, z, tt)
	ref := SliceRef{File: SliceFileName(z, tt), Z: z, T: tt}

	// Cut the file mid-way through row 5 (rows are 2·X = 20 bytes).
	path := filepath.Join(st.NodeDir(node), ref.File)
	if err := os.Truncate(path, 5*20+7); err != nil {
		t.Fatal(err)
	}

	// Rows entirely before the cut still read fine.
	if _, err := readRegion(st, node, ref, 0, 10, 0, 5); err != nil {
		t.Fatalf("rows before the truncation failed: %v", err)
	}
	// Any region touching the cut fails loudly, naming file and row.
	for _, r := range [][4]int{{0, 10, 5, 6}, {0, 10, 0, 8}, {4, 9, 5, 7}, {0, 10, 7, 8}} {
		_, err := readRegion(st, node, ref, r[0], r[1], r[2], r[3])
		if err == nil {
			t.Fatalf("region %v of a truncated file read without error", r)
		}
		if !strings.Contains(err.Error(), ref.File) {
			t.Errorf("error does not name the file: %v", err)
		}
		if !strings.Contains(err.Error(), "row") {
			t.Errorf("error does not name the row: %v", err)
		}
	}

	// Whole-slice reads of the truncated file fail on the size check.
	if _, err := st.ReadSlice(node, ref); err == nil {
		t.Error("ReadSlice of a truncated file succeeded")
	}
}

// TestReadSliceIntoMatchesReadSlice checks the buffer-reusing variants
// produce the same values as the allocating ones.
func TestReadSliceIntoMatchesReadSlice(t *testing.T) {
	v := randomVolume(12, [4]int{9, 7, 2, 2})
	st, meta := writeTemp(t, v, 2)
	buf := make([]uint16, 9*7)
	regionBuf := make([]uint16, 4*3)
	for tt := 0; tt < 2; tt++ {
		for z := 0; z < 2; z++ {
			node := OwnerNode(meta, z, tt)
			ref := SliceRef{File: SliceFileName(z, tt), Z: z, T: tt}
			want, err := st.ReadSlice(node, ref)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.ReadSliceInto(node, ref, buf); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("slice (z=%d, t=%d) value %d: %d != %d", z, tt, i, buf[i], want[i])
				}
			}
			if err := st.ReadSliceRegionIntoContext(context.Background(), node, ref, 2, 6, 1, 4, regionBuf); err != nil {
				t.Fatal(err)
			}
			for i, got := range regionBuf {
				if w := want[(1+i/4)*9+2+i%4]; got != w {
					t.Fatalf("region value %d: %d != %d", i, got, w)
				}
			}
		}
	}
	// Wrong-size buffers are rejected.
	node := OwnerNode(meta, 0, 0)
	ref := SliceRef{File: SliceFileName(0, 0), Z: 0, T: 0}
	if err := st.ReadSliceInto(node, ref, make([]uint16, 5)); err == nil {
		t.Error("short slice buffer accepted")
	}
	if err := st.ReadSliceRegionIntoContext(context.Background(), node, ref, 0, 4, 0, 4, make([]uint16, 5)); err == nil {
		t.Error("short region buffer accepted")
	}
}

// TestDecodeUint16s checks the strided bulk decoder against the scalar
// reference at lengths around the 4-value unroll boundary.
func TestDecodeUint16s(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 64, 65, 66, 67} {
		src := make([]byte, 2*n)
		rng.Read(src)
		want := make([]uint16, n)
		for i := range want {
			want[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
		}
		got := make([]uint16, n)
		DecodeUint16s(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d value %d: %#x != %#x", n, i, got[i], want[i])
			}
		}
	}
}

package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestChecksumsRoundTrip(t *testing.T) {
	v := randomVolume(11, [4]int{8, 6, 4, 3})
	st, meta := writeTemp(t, v, 2)
	if !meta.Checksums {
		t.Fatal("freshly written dataset not marked as checksummed")
	}
	out := make([]uint16, 8*6)
	for node := 0; node < meta.Nodes; node++ {
		refs, err := st.NodeIndex(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if !ref.HasCRC {
				t.Fatalf("slice %s has no checksum", ref.File)
			}
			if err := st.ReadSliceInto(node, ref, out); err != nil {
				t.Fatalf("verified read of %s: %v", ref.File, err)
			}
		}
	}
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	v := randomVolume(12, [4]int{8, 6, 2, 2})
	st, _ := writeTemp(t, v, 1)
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[0]
	path := filepath.Join(st.NodeDir(0), ref.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out := make([]uint16, 8*6)
	err = st.ReadSliceInto(0, ref, out)
	if !errors.Is(err, ErrDegradedData) {
		t.Fatalf("corrupt read err = %v, want ErrDegradedData", err)
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt read err = %v, want checksum mismatch", err)
	}
	// Region reads skip checksum verification by design: the flipped byte
	// still decodes, it just decodes wrong.
	if err := st.ReadSliceRegionIntoContext(context.Background(), 0, ref, 0, 4, 0, 3, out[:4*3]); err != nil {
		t.Fatalf("region read after flip: %v", err)
	}
}

func TestTruncatedAndMissingSlicesDegrade(t *testing.T) {
	v := randomVolume(13, [4]int{8, 6, 2, 2})
	st, _ := writeTemp(t, v, 1)
	refs, err := st.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint16, 8*6)

	trunc := filepath.Join(st.NodeDir(0), refs[0].File)
	if err := os.Truncate(trunc, 7); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadSliceInto(0, refs[0], out); !errors.Is(err, ErrDegradedData) {
		t.Fatalf("truncated read err = %v, want ErrDegradedData", err)
	}

	if err := os.Remove(filepath.Join(st.NodeDir(0), refs[1].File)); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadSliceInto(0, refs[1], out); !errors.Is(err, ErrDegradedData) {
		t.Fatalf("missing-file read err = %v, want ErrDegradedData", err)
	}
	if err := st.ReadSliceRegionIntoContext(context.Background(), 0, refs[1], 0, 8, 0, 6, out); !errors.Is(err, ErrDegradedData) {
		t.Fatalf("missing-file region read err = %v, want ErrDegradedData", err)
	}
}

// A pre-checksum index (three columns) still parses; its refs carry no CRC
// and whole-slice reads skip verification.
func TestLegacyIndexWithoutChecksums(t *testing.T) {
	v := randomVolume(14, [4]int{8, 6, 2, 2})
	st, meta := writeTemp(t, v, 1)
	idx := filepath.Join(st.NodeDir(0), "index.txt")
	raw, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	var legacy strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("expected 4-column index line, got %q", line)
		}
		legacy.WriteString(strings.Join(f[:3], " ") + "\n")
	}
	if err := os.WriteFile(idx, []byte(legacy.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.Dir)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := st2.NodeIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != meta.Dims[2]*meta.Dims[3] {
		t.Fatalf("legacy index has %d refs", len(refs))
	}
	out := make([]uint16, 8*6)
	for _, ref := range refs {
		if ref.HasCRC {
			t.Fatalf("legacy ref %s claims a checksum", ref.File)
		}
		if err := st2.ReadSliceInto(0, ref, out); err != nil {
			t.Fatalf("legacy read of %s: %v", ref.File, err)
		}
	}
}

func TestCorruptSlices(t *testing.T) {
	if _, err := CorruptSlices(t.TempDir(), -0.1, 1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := CorruptSlices(t.TempDir(), 1.5, 1); err == nil {
		t.Error("fraction above 1 accepted")
	}

	write := func() (*Store, string) {
		dir := t.TempDir()
		if _, err := Write(dir, randomVolume(15, [4]int{8, 6, 4, 4}), 2); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st, dir
	}

	st, dir := write()
	if out, err := CorruptSlices(dir, 0, 99); err != nil || out != nil {
		t.Fatalf("frac 0 = %v, %v, want no-op", out, err)
	}

	damaged, err := CorruptSlices(dir, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4; len(damaged) != want { // 16 slices * 0.25
		t.Fatalf("damaged %d slices, want %d: %v", len(damaged), want, damaged)
	}
	if !sortedStrings(damaged) {
		t.Errorf("damaged list not sorted: %v", damaged)
	}
	// Every damaged slice now fails a verified whole-slice read.
	degraded := 0
	out := make([]uint16, 8*6)
	for node := 0; node < st.Meta.Nodes; node++ {
		refs, err := st.NodeIndex(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			if err := st.ReadSliceInto(node, ref, out); err != nil {
				if !errors.Is(err, ErrDegradedData) {
					t.Fatalf("read of %s: %v, want ErrDegradedData", ref.File, err)
				}
				degraded++
			}
		}
	}
	if degraded != len(damaged) {
		t.Errorf("%d slices read degraded, want %d", degraded, len(damaged))
	}

	// Same (frac, seed) on an identical dataset picks the same victims.
	_, dir2 := write()
	damaged2, err := CorruptSlices(dir2, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(damaged, damaged2) {
		t.Errorf("not deterministic:\n%v\n%v", damaged, damaged2)
	}

	// A tiny positive fraction still damages at least one slice.
	_, dir3 := write()
	if d, err := CorruptSlices(dir3, 0.001, 3); err != nil || len(d) != 1 {
		t.Fatalf("tiny fraction damaged %v (%v), want exactly 1", d, err)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

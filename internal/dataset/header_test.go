package dataset

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// openHeader opens a MemBackend that holds only the given dataset.json.
func openHeader(hdr []byte) (*Store, error) {
	b := NewMemBackend()
	b.WriteFile("dataset.json", hdr)
	return OpenBackend(context.Background(), b)
}

// TestOpenRejectsBadHeaders: a header whose geometry cannot be sized fails
// at the open with ErrBadHeader, before anything reads a slice: overflowing
// dims would otherwise panic inside RFR ("makeslice: len out of range"), and
// negative ones fail only in the build.
func TestOpenRejectsBadHeaders(t *testing.T) {
	for _, tc := range []struct{ name, hdr string }{
		{"overflowing dims", `{"version":1,"dims":[112,112,3037000500,3037000500],"nodes":4}`},
		{"negative dims", `{"version":1,"dims":[-112,-112,9,9],"nodes":4}`},
		{"zero dim", `{"version":1,"dims":[112,112,0,9],"nodes":4}`},
		{"slice over the object bound", `{"version":1,"dims":[16384,16385,1,1],"nodes":1}`},
		{"slice product overflows", `{"version":1,"dims":[4294967296,4294967296,1,1],"nodes":1}`},
		{"no node", `{"version":1,"dims":[4,4,1,1],"nodes":0}`},
		{"wrong version", `{"version":99,"dims":[4,4,1,1],"nodes":1}`},
		{"unknown encoding", `{"version":1,"dims":[4,4,1,1],"nodes":1,"encoding":"tiff"}`},
		{"malformed JSON", `{"version":1,"dims":[4,4`},
	} {
		st, err := openHeader([]byte(tc.hdr))
		if !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: OpenBackend = %v, %v; want ErrBadHeader", tc.name, st, err)
		}
	}
	st, err := openHeader([]byte(`{"version":1,"dims":[8192,16384,2,3],"nodes":2}`))
	if err != nil {
		t.Fatalf("largest slice refused: %v", err)
	}
	st.Close()
}

// FuzzOpenHeader: any dataset.json gives an ErrBadHeader error or a store
// whose geometry the readers can size — never a panic, and never an
// allocation far beyond the header (the bound the other decoders of remote
// bytes keep; the slack covers the fuzz worker's own goroutines, since the
// count is process-wide).
func FuzzOpenHeader(f *testing.F) {
	f.Add([]byte(`{"version":1,"dims":[112,112,9,36],"nodes":4,"min":3,"max":4000,"checksums":true}`))
	f.Add([]byte(`{"version":1,"dims":[112,112,3037000500,3037000500],"nodes":4}`))
	f.Add([]byte(`{"version":1,"dims":[-112,-112,9,9],"nodes":4,"encoding":"dicom"}`))
	f.Add([]byte(`{"version":1,"dims":[1,1,1,1],"nodes":1,"dist":2}`))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := openHeader(hdr)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(hdr))+1<<20 {
			t.Fatalf("opening a %d-byte header allocated %d bytes", len(hdr), n)
		}
		if err != nil {
			if !errors.Is(err, ErrBadHeader) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		defer st.Close()
		m := st.Meta
		voxels := 1
		for _, d := range m.Dims {
			if d < 1 {
				t.Fatalf("store opened with dims %v", m.Dims)
			}
			voxels *= d
		}
		if voxels <= 0 || m.Nodes < 1 || m.maxObjectSize() > maxSliceBytes {
			t.Fatalf("store opened with %+v", m)
		}
		// The store is usable: its readers fail cleanly on the missing index.
		if _, err := st.NodeIndex(m.Nodes - 1); err == nil {
			t.Fatalf("node %d index read from a header-only backend", m.Nodes-1)
		}
	})
}

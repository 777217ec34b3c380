package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"haralick4d/internal/volume"
)

func testHeader() Header {
	return Header{
		Dims:           [4]int{24, 24, 6, 8},
		ROI:            [4]int{5, 5, 2, 2},
		ChunkShape:     [4]int{16, 16, 4, 4},
		OutDims:        [4]int{20, 20, 5, 7},
		GrayLevels:     16,
		NDim:           4,
		Distance:       1,
		Representation: 0,
		Features:       []int{0, 1, 2, 3},
	}
}

func boxVals(b volume.Box) []float64 {
	vals := make([]float64, b.NumVoxels())
	for i := range vals {
		vals[i] = float64(b.Lo[0]*1000 + i)
	}
	return vals
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	hdr := testHeader()
	j, err := Create(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1 := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{4, 4, 2, 2}}
	b2 := volume.Box{Lo: [4]int{4, 0, 0, 0}, Hi: [4]int{8, 4, 2, 2}}
	if err := j.AppendPortion(1, b1, boxVals(b1)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPortion(1, b1, boxVals(b1)); err != nil { // dup, dropped
		t.Fatal(err)
	}
	if err := j.AppendPortion(2, b2, boxVals(b2)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDegraded(3, volume.Box{Lo: [4]int{0, 0, 0, 3}, Hi: [4]int{12, 12, 3, 6}}, []int{7, 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st, err := Resume(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st.TruncatedBytes != 0 {
		t.Errorf("TruncatedBytes = %d, want 0", st.TruncatedBytes)
	}
	if len(st.Portions) != 2 {
		t.Fatalf("recovered %d portions, want 2 (duplicate must be dropped)", len(st.Portions))
	}
	if st.Portions[0].Feature != 1 || st.Portions[0].Box != b1 {
		t.Errorf("portion 0 = feature %d box %v", st.Portions[0].Feature, st.Portions[0].Box)
	}
	want := boxVals(b1)
	for i, v := range st.Portions[0].Values {
		if v != want[i] {
			t.Fatalf("portion 0 value %d = %v, want %v", i, v, want[i])
		}
	}
	if len(st.Degraded) != 1 || st.Degraded[0].Chunk != 3 || len(st.Degraded[0].Slices) != 2 {
		t.Errorf("degraded = %+v", st.Degraded)
	}
	// A resumed journal must dedupe against recovered records too.
	if err := j2.AppendPortion(1, b1, boxVals(b1)); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := j2.AppendPortion(1, b1, boxVals(b1)); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Errorf("replayed portion grew the journal: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestResumeHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := Create(path, testHeader(), 0)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := testHeader()
	other.GrayLevels = 32
	if _, _, err := Resume(path, other, 0); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Resume with different gray levels: err = %v, want ErrMismatch", err)
	}
	// A log whose first frame is some other record is not this run's
	// journal either.
	l, err := CreateLog(path, []byte{recPortion, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := Resume(path, testHeader(), 0); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Resume of a foreign log: err = %v, want ErrMismatch", err)
	}
}

// recordedRun is what testdata/run.journal holds. The file was written by
// Journal before it became a client of Log, with the writes below (a
// duplicate portion offer between the degraded notices was dropped).
func recordedRun() *State {
	vals := func(b volume.Box, seed float64) []float64 {
		v := make([]float64, b.NumVoxels())
		for i := range v {
			v[i] = seed + float64(i)*0.125
		}
		return v
	}
	b1 := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{2, 2, 1, 1}}
	b2 := volume.Box{Lo: [4]int{2, 0, 0, 0}, Hi: [4]int{4, 1, 1, 1}}
	b3 := volume.Box{Lo: [4]int{10, 12, 3, 5}, Hi: [4]int{11, 14, 4, 7}}
	return &State{
		Portions: []Portion{
			{Feature: 0, Box: b1, Values: vals(b1, -3)},
			{Feature: 1, Box: b1, Values: vals(b1, 1e-300)},
			{Feature: 3, Box: b2, Values: vals(b2, 42.5)},
			{Feature: 2, Box: b3, Values: vals(b3, -0.0625)},
		},
		Degraded: []DegradedChunk{
			{Chunk: 1, Origins: volume.Box{Lo: [4]int{12, 0, 0, 0}, Hi: [4]int{20, 12, 3, 3}}, Slices: []int{4, 9}},
			{Chunk: 5, Origins: volume.Box{Lo: [4]int{12, 0, 3, 0}, Hi: [4]int{20, 12, 5, 3}}, Slices: []int{}},
		},
	}
}

// frameEnds returns the offset just past each whole frame of data.
func frameEnds(data []byte) []int {
	var ends []int
	for off := 0; off+8 <= len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// TestResumeRecordedJournal: a journal written before Journal became a
// client of Log resumes with every portion and degraded notice.
func TestResumeRecordedJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := Resume(path, testHeader(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if want := recordedRun(); !reflect.DeepEqual(st, want) {
		t.Fatalf("resumed %+v\nwant %+v", st, want)
	}
}

func TestResumeTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	hdr := testHeader()
	j, err := Create(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1 := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{4, 4, 2, 2}}
	b2 := volume.Box{Lo: [4]int{4, 0, 0, 0}, Hi: [4]int{8, 4, 2, 2}}
	if err := j.AppendPortion(0, b1, boxVals(b1)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPortion(0, b2, boxVals(b2)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear off the middle of the last record, as a crash mid-write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 11
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, st, err := Resume(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Portions) != 1 || st.Portions[0].Box != b1 {
		t.Fatalf("recovered %d portions (want just the first)", len(st.Portions))
	}
	if st.TruncatedBytes == 0 {
		t.Error("TruncatedBytes = 0, want the torn tail reported")
	}
	// The tail is gone from disk and the journal accepts re-appends of the
	// lost record cleanly.
	if err := j2.AppendPortion(0, b2, boxVals(b2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, st3, err := Resume(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(st3.Portions) != 2 || st3.TruncatedBytes != 0 {
		t.Fatalf("after re-append: %d portions, %d truncated bytes", len(st3.Portions), st3.TruncatedBytes)
	}
}

// TestResumeCutAtEveryByte cuts the recorded journal at every byte offset:
// each reopen recovers exactly the records of the whole frames before the
// cut and reports the rest as the torn tail; a cut inside the header frame
// leaves no journal to resume.
func TestResumeCutAtEveryByte(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	full, ends := recordedRun(), frameEnds(raw)
	path := filepath.Join(t.TempDir(), "run.journal")
	for cut := 0; cut <= len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, st, err := Resume(path, testHeader(), 0)
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if whole == 0 {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d inside the header: err = %v, want ErrCorrupt", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		np, nd := 0, 0
		for _, end := range ends[:whole-1] {
			if raw[end+8] == recPortion {
				np++
			} else {
				nd++
			}
		}
		want := &State{
			Portions:       append([]Portion(nil), full.Portions[:np]...),
			Degraded:       append([]DegradedChunk(nil), full.Degraded[:nd]...),
			TruncatedBytes: int64(cut - ends[whole-1]),
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("cut %d: resumed %d portions, %d degraded, %d torn bytes; want %d, %d, %d",
				cut, len(st.Portions), len(st.Degraded), st.TruncatedBytes, np, nd, want.TruncatedBytes)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(ends[whole-1]) {
			t.Fatalf("cut %d: reopened file not truncated to %d bytes (%v)", cut, ends[whole-1], err)
		}
		// An append after the cut lands on the frame boundary.
		if err := j.AppendDegraded(99, volume.Box{Hi: [4]int{1, 1, 1, 1}}, []int{7}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, st, err = Resume(path, testHeader(), 0)
		if err != nil {
			t.Fatalf("cut %d, reopened after an append: %v", cut, err)
		}
		j.Close()
		if st.TruncatedBytes != 0 || len(st.Portions) != np || len(st.Degraded) != nd+1 || st.Degraded[nd].Chunk != 99 {
			t.Fatalf("cut %d, reopened after an append: %d portions, %d degraded, %d torn bytes", cut, len(st.Portions), len(st.Degraded), st.TruncatedBytes)
		}
	}
}

// TestDecodersBoundAllocation: a checksummed record whose element count
// claims more than the record holds is corrupt before anything is
// allocated for it.
func TestDecodersBoundAllocation(t *testing.T) {
	huge := volume.Box{Hi: [4]int{1 << 13, 1 << 13, 1, 1}} // 2^26 voxels
	for name, rec := range map[string][]byte{
		"portion":  appendU32(appendBox(appendU32([]byte{recPortion}, 0), huge), uint32(huge.NumVoxels())),
		"degraded": appendU32(appendBox(appendU32([]byte{recDegraded}, 0), huge), 1<<26),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := Create(path, testHeader(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.log.Append(rec); err != nil {
				t.Fatal(err)
			}
			j.Close()
			if n := allocated(func() { _, _, err = Resume(path, testHeader(), 0) }); n > 1<<20 {
				t.Errorf("a %d-byte record made Resume allocate %d bytes", len(rec), n)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestResumeCorruptMidFileStopsAtDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	hdr := testHeader()
	j, err := Create(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1 := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{4, 4, 2, 2}}
	b2 := volume.Box{Lo: [4]int{4, 0, 0, 0}, Hi: [4]int{8, 4, 2, 2}}
	j.AppendPortion(0, b1, boxVals(b1))
	fi, _ := os.Stat(path) // end of the intact prefix: appends write through
	off := fi.Size()
	j.AppendPortion(0, b2, boxVals(b2))
	j.Close()

	// Flip a payload byte in the second portion record: its CRC fails, so
	// everything from it on is treated as the torn tail.
	data, _ := os.ReadFile(path)
	data[off+20] ^= 0xff
	os.WriteFile(path, data, 0o644)

	_, st, err := Resume(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Portions) != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("recovered %d portions, truncated %d bytes", len(st.Portions), st.TruncatedBytes)
	}
}

func TestResumeRejectsInvalidRecords(t *testing.T) {
	hdr := testHeader()
	b := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{4, 4, 2, 2}}
	cases := []struct {
		name    string
		feature int
		box     volume.Box
	}{
		{"unknown feature", 99, b},
		{"box outside output", 0, volume.Box{Lo: [4]int{18, 0, 0, 0}, Hi: [4]int{25, 4, 2, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := Create(path, hdr, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Bypass AppendPortion's validation to plant the bad record with
			// a valid checksum, as a buggy writer would.
			buf := []byte{recPortion}
			buf = appendU32(buf, uint32(c.feature))
			buf = appendBox(buf, c.box)
			buf = appendU32(buf, uint32(c.box.NumVoxels()))
			for i := 0; i < c.box.NumVoxels(); i++ {
				buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
			}
			if err := j.log.Append(buf); err != nil {
				t.Fatal(err)
			}
			j.Close()
			if _, _, err := Resume(path, hdr, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestCompleteChunks(t *testing.T) {
	hdr := testHeader()
	ck, err := volume.NewChunker(hdr.Dims, hdr.ChunkShape, hdr.ROI)
	if err != nil {
		t.Fatal(err)
	}
	feats := hdr.Features
	st := &State{}

	// Chunk 0 fully covered for every feature, split into two boxes per
	// feature; chunk 1 covered for only one feature.
	c0 := ck.Chunk(0).Origins
	mid := c0
	mid.Hi[0] = c0.Lo[0] + (c0.Hi[0]-c0.Lo[0])/2
	rest := c0
	rest.Lo[0] = mid.Hi[0]
	for _, f := range feats {
		st.Portions = append(st.Portions,
			Portion{Feature: f, Box: mid, Values: make([]float64, mid.NumVoxels())},
			Portion{Feature: f, Box: rest, Values: make([]float64, rest.NumVoxels())})
	}
	c1 := ck.Chunk(1).Origins
	st.Portions = append(st.Portions, Portion{Feature: feats[0], Box: c1, Values: make([]float64, c1.NumVoxels())})
	// Chunk 2 surrendered as degraded.
	st.Degraded = append(st.Degraded, DegradedChunk{Chunk: 2, Origins: ck.Chunk(2).Origins, Slices: []int{4}})

	complete, err := CompleteChunks(st, ck, feats)
	if err != nil {
		t.Fatal(err)
	}
	if !complete[0] {
		t.Error("chunk 0 should be complete")
	}
	if complete[1] {
		t.Error("chunk 1 is only partially covered, must not be complete")
	}
	if !complete[2] {
		t.Error("degraded chunk 2 should count as complete")
	}

	// Overlapping portions are corruption, not progress.
	st.Portions = append(st.Portions, Portion{Feature: feats[0], Box: mid, Values: make([]float64, mid.NumVoxels())})
	st.Portions = append(st.Portions, Portion{Feature: feats[0], Box: mid, Values: make([]float64, mid.NumVoxels())})
	if _, err := CompleteChunks(st, ck, feats); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overfilled chunk: err = %v, want ErrCorrupt", err)
	}

	// A degraded record whose geometry disagrees with the chunker is
	// likewise rejected.
	bad := &State{Degraded: []DegradedChunk{{Chunk: 1, Origins: ck.Chunk(0).Origins}}}
	if _, err := CompleteChunks(bad, ck, feats); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched degraded box: err = %v, want ErrCorrupt", err)
	}
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

package filters

import (
	"math/rand"
	"sync"
	"testing"

	"haralick4d/internal/dataset"
	"haralick4d/internal/dicom"
	"haralick4d/internal/filter"
	"haralick4d/internal/readahead"
	"haralick4d/internal/volume"
)

// collectChunks runs reader → IIC → sink over the given source filter and
// returns the assembled chunks.
func collectChunks(t *testing.T, name string, copies int, mk func(int) filter.Filter, ck *volume.Chunker) map[int]*volume.Region {
	t.Helper()
	var mu sync.Mutex
	out := map[int]*volume.Region{}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: name, Copies: copies, New: mk})
	g.AddFilter(filter.FilterSpec{Name: "IIC", Copies: 2, New: NewIIC(IICConfig{Chunker: ck})})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				cm := m.Payload.(*ChunkMsg)
				mu.Lock()
				out[cm.Chunk] = cm.Region
				mu.Unlock()
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: name, FromPort: PortOut, To: "IIC", ToPort: PortIn, Policy: filter.Explicit})
	g.Connect(filter.ConnSpec{From: "IIC", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func compareChunkSets(t *testing.T, ck *volume.Chunker, base map[int]*volume.Region, others ...map[int]*volume.Region) {
	t.Helper()
	if len(base) != ck.Count() {
		t.Fatalf("assembled %d chunks, want %d", len(base), ck.Count())
	}
	for id, w := range base {
		for oi, other := range others {
			o := other[id]
			if o == nil {
				t.Fatalf("variant %d: chunk %d missing", oi, id)
			}
			for i := range w.Data {
				if w.Data[i] != o.Data[i] {
					t.Fatalf("variant %d: chunk %d differs", oi, id)
				}
			}
		}
	}
}

// TestRFRReadAheadInvariance checks the tentpole contract: any read-ahead
// depth, fixed or self-sized, produces chunk data identical to the
// synchronous reader, for both whole-slice and positioned sub-window reads.
func TestRFRReadAheadInvariance(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	v := volume.NewVolume([4]int{16, 12, 3, 3})
	for i := range v.Data {
		v.Data[i] = uint16(rng.Intn(2000))
	}
	if _, err := dataset.Write(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := volume.NewChunker(v.Dims, [4]int{10, 10, 2, 2}, [4]int{3, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ioChunk := range [][2]int{{0, 0}, {5, 4}} {
		run := func(depth int) map[int]*volume.Region {
			return collectChunks(t, "RFR", 2, NewRFR(RFRConfig{
				Store: st, Chunker: ck, GrayLevels: 16, IOChunk: ioChunk, ReadAhead: depth,
			}), ck)
		}
		sync0 := run(0)
		compareChunkSets(t, ck, sync0, run(1), run(4), run(64), run(readahead.Auto))
	}
}

// TestDFRReadAheadInvariance is the DICOM-layout counterpart.
func TestDFRReadAheadInvariance(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	v := volume.NewVolume([4]int{12, 10, 3, 3})
	for i := range v.Data {
		v.Data[i] = uint16(rng.Intn(2000))
	}
	if err := dicom.WriteStudy(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	study, err := dicom.OpenStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := volume.NewChunker(v.Dims, [4]int{8, 8, 2, 2}, [4]int{3, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(depth int) map[int]*volume.Region {
		return collectChunks(t, "DFR", 2, NewDFR(DFRConfig{
			Study: study, Chunker: ck, GrayLevels: 16, ReadAhead: depth,
		}), ck)
	}
	sync0 := run(0)
	compareChunkSets(t, ck, sync0, run(1), run(4), run(64), run(readahead.Auto))
}

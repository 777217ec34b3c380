package filters

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

func testChunker(t *testing.T, dims, chunk, roi [4]int) *volume.Chunker {
	t.Helper()
	ck, err := volume.NewChunker(dims, chunk, roi)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func TestIICRejectsMisroutedPiece(t *testing.T) {
	ck := testChunker(t, [4]int{8, 8, 2, 2}, [4]int{8, 8, 2, 2}, [4]int{3, 3, 1, 1})
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			// Chunk 0 belongs to IIC copy 0 of 2; deliver it to copy 1.
			piece := &PieceMsg{Chunk: 0, Region: volume.NewRegion(ck.Chunk(0).Voxels)}
			return ctx.SendTo(PortOut, 1, piece)
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "IIC", Copies: 2, New: NewIIC(IICConfig{Chunker: ck})})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: drain()})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "IIC", ToPort: PortIn, Policy: filter.Explicit})
	g.Connect(filter.ConnSpec{From: "IIC", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err == nil || !strings.Contains(err.Error(), "routed") {
		t.Errorf("misrouted piece not rejected: %v", err)
	}
}

func TestIICRejectsOverlappingPieces(t *testing.T) {
	ck := testChunker(t, [4]int{8, 8, 2, 2}, [4]int{8, 8, 2, 2}, [4]int{3, 3, 1, 1})
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			piece := &PieceMsg{Chunk: 0, Region: volume.NewRegion(ck.Chunk(0).Voxels)}
			if err := ctx.SendTo(PortOut, 0, piece); err != nil {
				return err
			}
			// The same region again: duplicate voxels.
			dup := &PieceMsg{Chunk: 0, Region: volume.NewRegion(ck.Chunk(0).Voxels)}
			return ctx.SendTo(PortOut, 0, dup)
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "IIC", Copies: 1, New: NewIIC(IICConfig{Chunker: ck})})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: drain()})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "IIC", ToPort: PortIn, Policy: filter.Explicit})
	g.Connect(filter.ConnSpec{From: "IIC", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err == nil {
		t.Error("overlapping pieces not rejected")
	}
}

func drain() func(int) filter.Filter {
	return func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}
}

func TestHPCRejectsShortBatch(t *testing.T) {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			batch := &MatrixBatchMsg{
				Origins: volume.BoxAt([4]int{}, [4]int{2, 1, 1, 1}),
				G:       8,
				Sparse:  []*glcm.Sparse{glcm.NewSparse(8)}, // 1 matrix for 2 origins
			}
			return ctx.Send(PortOut, batch)
		})
	}})
	cfg := TextureConfig{Analysis: core.Config{GrayLevels: 8, Representation: core.SparseMatrix}}
	g.AddFilter(filter.FilterSpec{Name: "HPC", Copies: 1, New: NewHPC(cfg)})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: drain()})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "HPC", ToPort: PortIn, Policy: filter.RoundRobin})
	g.Connect(filter.ConnSpec{From: "HPC", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err == nil {
		t.Error("short batch not rejected")
	}
}

// The RFR I/O chunk sweep: any read-window size must produce identical
// streams (the IIC assembles the same chunks regardless of I/O granularity).
func TestRFRIOChunkInvariance(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	v := volume.NewVolume([4]int{16, 12, 2, 3})
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
	ck := testChunker(t, v.Dims, [4]int{10, 10, 2, 2}, [4]int{3, 3, 1, 1})

	assemble := func(ioChunk [2]int) map[int]*volume.Region {
		var mu sync.Mutex
		out := map[int]*volume.Region{}
		g := filter.NewGraph()
		g.AddFilter(filter.FilterSpec{Name: "RFR", Copies: 2, New: NewRFR(RFRConfig{
			Store: st, Chunker: ck, GrayLevels: 16, IOChunk: ioChunk,
		})})
		g.AddFilter(filter.FilterSpec{Name: "IIC", Copies: 1, New: NewIIC(IICConfig{Chunker: ck})})
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
		g.Connect(filter.ConnSpec{From: "RFR", FromPort: PortOut, To: "IIC", ToPort: PortIn, Policy: filter.Explicit})
		g.Connect(filter.ConnSpec{From: "IIC", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
		if _, err := filter.RunLocal(g, nil); err != nil {
			t.Fatal(err)
		}
		return out
	}

	whole := assemble([2]int{0, 0}) // whole-slice reads
	small := assemble([2]int{5, 4}) // positioned sub-window reads
	odd := assemble([2]int{16, 1})  // row-at-a-time reads
	if len(whole) != ck.Count() {
		t.Fatalf("assembled %d chunks, want %d", len(whole), ck.Count())
	}
	for id, w := range whole {
		for _, other := range []map[int]*volume.Region{small, odd} {
			o := other[id]
			if o == nil {
				t.Fatalf("chunk %d missing", id)
			}
			for i := range w.Data {
				if w.Data[i] != o.Data[i] {
					t.Fatalf("chunk %d differs between I/O chunk sizes", id)
				}
			}
		}
	}
}

func TestSendParamRouteByFeature(t *testing.T) {
	// RouteByFeature must land each feature on copy (feature mod copies).
	var mu sync.Mutex
	got := map[int][]features.Feature{}
	g := filter.NewGraph()
	cfg := &TextureConfig{RouteByFeature: true}
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for _, f := range features.All() {
				pm := &ParamMsg{Feature: f, Box: volume.BoxAt([4]int{}, [4]int{1, 1, 1, 1}), Values: []float64{1}}
				if err := sendParam(ctx, cfg, pm); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 3, New: func(copy int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				mu.Lock()
				got[copy] = append(got[copy], m.Payload.(*ParamMsg).Feature)
				mu.Unlock()
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.Explicit})
	if _, err := filter.RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	for copy, fs := range got {
		for _, f := range fs {
			if int(f)%3 != copy {
				t.Errorf("feature %v landed on copy %d", f, copy)
			}
		}
	}
}

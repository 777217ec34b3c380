package haralick4d

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/glcm"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// ioBenchResult is one configuration's measurement: min-of-3 wall time plus,
// on the TCP engine, the summed per-connection send time and wire bytes.
type ioBenchResult struct {
	ElapsedNS    int64 `json:"elapsed_ns"`
	SendNS       int64 `json:"send_ns,omitempty"`
	WireBytesOut int64 `json:"wire_bytes_out,omitempty"`
}

// ioBenchConfig builds the I/O-heavy pipeline config for the bench: a light
// compute load (four axis directions, sparse matrices) over many small
// positioned reads, so the reader stage dominates and the read-ahead and
// codec changes are visible in the end-to-end time.
func ioBenchConfig(readAhead int) *pipeline.Config {
	return &pipeline.Config{
		Analysis: core.Config{
			ROI:            [4]int{5, 5, 2, 2},
			GrayLevels:     16,
			NDim:           4,
			Distance:       1,
			Directions:     glcm.AxisDirections(4, 1),
			Features:       features.PaperSet(),
			Representation: core.SparseMatrix,
		},
		ChunkShape: [4]int{16, 16, 4, 4},
		IOChunk:    [2]int{16, 16},
		ReadAhead:  readAhead,
		Impl:       pipeline.HMPImpl,
		Policy:     filter.DemandDriven,
		Output:     pipeline.OutputCollect,
	}
}

var ioBenchLayout = &pipeline.Layout{
	SourceNodes: []int{0, 1, 2},
	HMPNodes:    []int{1, 2},
	OutputNodes: []int{0},
}

// TestWriteIOBenchJSON measures the I/O fast path end to end — read-ahead
// off against read-ahead 4, both over the binary wire codec (the TCP
// engine's only one) — over both dataset layouts and both in-process
// engines, and writes the numbers to the path in HARALICK4D_BENCH_IO_OUT;
// used to produce the committed BENCH_io.json:
//
//	HARALICK4D_BENCH_IO_OUT=$PWD/BENCH_io.json go test -run TestWriteIOBenchJSON
func TestWriteIOBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_IO_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_IO_OUT to regenerate BENCH_io.json")
	}
	dims := [4]int{48, 48, 8, 8}
	v := synthetic.Generate(synthetic.Config{Dims: dims, Seed: 11})
	stores := map[string]*dataset.Store{}
	for _, layout := range []string{"raw", "dicom"} {
		enc, err := dataset.ParseEncoding(layout)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), layout)
		if _, err := dataset.WriteDistributed(dir, v, 3, dataset.RoundRobinDist, enc); err != nil {
			t.Fatal(err)
		}
		if stores[layout], err = dataset.Open(dir); err != nil {
			t.Fatal(err)
		}
	}

	build := func(layout string, cfg *pipeline.Config) *filter.Graph {
		t.Helper()
		g, _, _, err := pipeline.Build(stores[layout], cfg, ioBenchLayout)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// measure reports the min-of-3 run for one configuration; pipeline wall
	// times carry scheduler noise that a single run does not suppress.
	measure := func(layout string, engine pipeline.Engine, readAhead int) ioBenchResult {
		t.Helper()
		var best ioBenchResult
		for i := 0; i < 3; i++ {
			runtime.GC()
			rs, err := pipeline.Run(build(layout, ioBenchConfig(readAhead)), engine, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := ioBenchResult{ElapsedNS: int64(rs.Elapsed())}
			if rs != nil {
				for _, c := range rs.Network {
					r.SendNS += c.SendNS
					r.WireBytesOut += c.WireBytesOut
				}
			}
			if i == 0 || r.ElapsedNS < best.ElapsedNS {
				best = r
			}
		}
		return best
	}

	// Encode-only comparison of the two codecs on a representative hot
	// message (a 16×16 single-slice piece), free of the socket wait the TCP
	// Send timer folds in.
	piece := &filters.PieceMsg{Chunk: 3, Region: volume.NewRegion(volume.Box{
		Lo: [4]int{0, 0, 2, 1}, Hi: [4]int{16, 16, 3, 2},
	})}
	for i := range piece.Region.Data {
		piece.Region.Data[i] = uint8(i)
	}
	minNs := func(fn func(*testing.B)) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(fn)
			if ns := float64(r.NsPerOp()); i == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	binaryEncNs := minNs(func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = piece.AppendWire(buf[:0])
		}
	})
	gobEncNs := minNs(func(b *testing.B) {
		var p filter.Payload = piece
		var blob bytes.Buffer
		enc := gob.NewEncoder(&blob)
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(&p); err != nil {
				b.Fatal(err)
			}
			blob.Reset()
		}
	})
	t.Logf("piece encode: binary %.0f ns/op, gob %.0f ns/op (%.1fx)", binaryEncNs, gobEncNs, gobEncNs/binaryEncNs)

	type pair struct {
		Before  ioBenchResult `json:"before"` // readahead 0
		After   ioBenchResult `json:"after"`  // readahead 4
		Speedup float64       `json:"speedup"`
	}
	results := map[string]pair{}
	for _, layout := range []string{"raw", "dicom"} {
		for _, eng := range []pipeline.Engine{pipeline.EngineLocal, pipeline.EngineTCP} {
			before := measure(layout, eng, 0)
			after := measure(layout, eng, 4)
			p := pair{Before: before, After: after,
				Speedup: float64(before.ElapsedNS) / float64(after.ElapsedNS)}
			key := layout + "-" + eng.String()
			results[key] = p
			t.Logf("%-12s before %12d ns, after %12d ns, speedup %.2fx", key, before.ElapsedNS, after.ElapsedNS, p.Speedup)
		}
	}

	doc := struct {
		GeneratedBy string          `json:"generated_by"`
		Host        map[string]any  `json:"host"`
		Workload    string          `json:"workload"`
		Results     map[string]pair `json:"results"`
		Codec       map[string]any  `json:"codec"`
		Notes       []string        `json:"notes"`
	}{
		GeneratedBy: "go test -run TestWriteIOBenchJSON (HARALICK4D_BENCH_IO_OUT)",
		Host: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Workload: "48x48x8x8 phantom on 3 storage nodes, ROI 5x5x2x2, G=16, 4 axis directions, sparse matrices, 16x16 I/O windows, HMP on 2 remote nodes",
		Results:  results,
		Codec: map[string]any{
			"piece_encode_binary_ns_per_op": binaryEncNs,
			"piece_encode_gob_ns_per_op":    gobEncNs,
			"encode_speedup":                gobEncNs / binaryEncNs,
		},
		Notes: []string{
			"before = synchronous reads (ReadAhead 0); after = ReadAhead 4; both over the length-prefixed binary wire codec, the TCP engine's only one (the per-connection gob stream mode the committed file's before arm used is gone)",
			"elapsed_ns is the min of 3 end-to-end runs; send_ns and wire_bytes_out sum the TCP engine's per-connection Send timer and counting-writer bytes (zero on the local engine, which moves pointers); the Send timer includes socket backpressure, so the codec block carries the clean encode-only comparison",
			"outputs are bit-identical across all four configurations per layout (TestTCPWireCodecEquivalence, TestRFRReadAheadInvariance)",
			"on a single-CPU host (gomaxprocs 1) the read-ahead workers cannot overlap with compute, so the pairs measure mostly run-to-run noise; multi-core hosts see the read-ahead overlap",
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

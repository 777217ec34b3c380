package haralick4d

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/synthetic"
)

// benchAnalyzeMetrics runs the parallel façade path with the observability
// layer on or off, over a volume big enough that per-buffer metric costs
// would show up if they were significant.
func benchAnalyzeMetrics(disable bool) func(*testing.B) {
	return func(b *testing.B) {
		v := GeneratePhantom(PhantomConfig{Dims: [4]int{32, 32, 8, 8}, Seed: 9})
		opts := &Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, GrayLevels: 16, Texture: 4}, DisableMetrics: disable}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(v, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAnalyzeMetricsOn(b *testing.B)  { benchAnalyzeMetrics(false)(b) }
func BenchmarkAnalyzeMetricsOff(b *testing.B) { benchAnalyzeMetrics(true)(b) }

// TestWriteMetricsBenchJSON measures the observability layer's overhead
// (metrics on vs off on the same workload) and the report's time-accounting
// quality, and writes both to the path in HARALICK4D_BENCH_METRICS_OUT; used
// to produce the committed BENCH_metrics.json:
//
//	HARALICK4D_BENCH_METRICS_OUT=$PWD/BENCH_metrics.json go test -run TestWriteMetricsBenchJSON
func TestWriteMetricsBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_METRICS_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_METRICS_OUT to regenerate BENCH_metrics.json")
	}
	// Min of three benchmark runs per mode: pipeline wall times carry
	// scheduler noise that a single averaged run does not suppress.
	minNs := func(fn func(*testing.B)) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(fn)
			ns := float64(r.NsPerOp())
			if i == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	onNs := minNs(BenchmarkAnalyzeMetricsOn)
	offNs := minNs(BenchmarkAnalyzeMetricsOff)
	overheadPct := 100 * (onNs - offNs) / offNs
	t.Logf("metrics on %12.0f ns/op, off %12.0f ns/op, overhead %+.2f%%", onNs, offNs, overheadPct)

	// Accounting quality from one metered run: per copy, busy + blocked +
	// stalled should cover the elapsed wall time. A saturated pipeline —
	// many chunks, shallow queues — keeps every copy alive for the whole
	// run, so the per-copy sums are directly comparable to the elapsed time.
	mb, _, err := dataset.WriteMemDataset(synthetic.Generate(synthetic.Config{Dims: [4]int{32, 32, 8, 8}, Seed: 9}), 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.OpenBackend(context.Background(), mb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pcfg := &pipeline.Config{
		Analysis: core.Config{
			ROI:            [4]int{5, 5, 2, 2},
			GrayLevels:     16,
			NDim:           4,
			Distance:       1,
			Features:       features.PaperSet(),
			Representation: core.SparseMatrix,
		},
		ChunkShape: [4]int{12, 12, 4, 4},
		Impl:       pipeline.HMPImpl,
		Policy:     filter.DemandDriven,
		Output:     pipeline.OutputCollect,
	}
	g, _, _, err := pipeline.Build(st, pcfg, &pipeline.Layout{HMPNodes: make([]int, 4)})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := pipeline.Run(g, pipeline.EngineLocal, &pipeline.RunOptions{QueueBytes: 2 * (80 + 12*12*4*4)}) // two chunks per input queue
	if err != nil {
		t.Fatal(err)
	}
	rep := rs
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	var copies int
	var accounted int64
	for _, f := range rep.Filters {
		for _, c := range f.Copies {
			copies++
			accounted += c.BusyNS + c.BlockedRecvNS + c.StalledSendNS
		}
	}
	wall := rep.ElapsedNS * int64(copies)
	ratio := float64(accounted) / float64(wall)
	t.Logf("accounting: %d ns over %d copies = %.1f%% of wall x copies", accounted, copies, 100*ratio)

	doc := struct {
		GeneratedBy string         `json:"generated_by"`
		Host        map[string]any `json:"host"`
		Workload    string         `json:"workload"`
		MetricsOn   float64        `json:"metrics_on_ns_per_op"`
		MetricsOff  float64        `json:"metrics_off_ns_per_op"`
		OverheadPct float64        `json:"overhead_pct"`
		Accounting  map[string]any `json:"accounting"`
		Notes       []string       `json:"notes"`
	}{
		GeneratedBy: "go test -run TestWriteMetricsBenchJSON (HARALICK4D_BENCH_METRICS_OUT)",
		Host: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Workload:    "Analyze 32x32x8x8 phantom, ROI 5x5x2x2, G=16, 40 directions, Texture 4, local engine",
		MetricsOn:   onNs,
		MetricsOff:  offNs,
		OverheadPct: overheadPct,
		Accounting: map[string]any{
			"accounted_ns":            accounted,
			"wall_x_copies_ns":        wall,
			"accounted_over_wall_pct": 100 * ratio,
			"copies":                  copies,
		},
		Notes: []string{
			"overhead compares min-of-3 benchmark runs of the same pipeline with the observability layer on (default) and off (Options.DisableMetrics)",
			"per-buffer metric cost is a handful of atomic operations; span timers are two time.Now() calls per recorded section",
			"accounting sums busy + blocked-recv + stalled-send across every filter copy of a saturated pipeline (explicit 12x12x4x4 chunks, queue depth 2) where every copy lives for the whole run; copies that finish early in unsaturated runs stop accruing and lower the ratio",
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

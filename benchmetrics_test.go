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

// BenchmarkAnalyzeMetricsOn runs the parallel façade path, metrics and
// all, over a volume big enough that per-buffer metric costs would show up
// if they were significant.
func BenchmarkAnalyzeMetricsOn(b *testing.B) {
	v := GeneratePhantom(PhantomConfig{Dims: [4]int{32, 32, 8, 8}, Seed: 9})
	opts := &Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, GrayLevels: 16, Texture: 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(v, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteMetricsBenchJSON measures the metered pipeline's time per run and
// the report's time-accounting quality, and writes both to the path in
// HARALICK4D_BENCH_METRICS_OUT:
//
//	HARALICK4D_BENCH_METRICS_OUT=$PWD/bench-metrics.json go test -run TestWriteMetricsBenchJSON
//
// The committed BENCH_metrics.json also holds an overhead row, on against
// off, taken while the metrics layer could still be switched off; every run
// records its metrics now, so that row cannot be regenerated.
func TestWriteMetricsBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_METRICS_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_METRICS_OUT to measure the metered pipeline")
	}
	// Min of three benchmark runs: pipeline wall times carry scheduler noise
	// that a single averaged run does not suppress.
	onNs := 0.0
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(BenchmarkAnalyzeMetricsOn)
		if ns := float64(r.NsPerOp()); i == 0 || ns < onNs {
			onNs = ns
		}
	}
	t.Logf("metrics on %12.0f ns/op", onNs)

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
	rs, err := pipeline.Run(g, pipeline.EngineLocal, &pipeline.RunOptions{Options: filter.Options{QueueBytes: 2 * (80 + 12*12*4*4)}}) // two chunks per input queue
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
		Workload:  "Analyze 32x32x8x8 phantom, ROI 5x5x2x2, G=16, 40 directions, Texture 4, local engine",
		MetricsOn: onNs,
		Accounting: map[string]any{
			"accounted_ns":            accounted,
			"wall_x_copies_ns":        wall,
			"accounted_over_wall_pct": 100 * ratio,
			"copies":                  copies,
		},
		Notes: []string{
			"metrics_on_ns_per_op is the min of 3 benchmark runs; every run records its metrics, so there is no off arm to compare it with",
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

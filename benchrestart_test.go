package haralick4d

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestWriteRestartBenchJSON measures the cost of the robustness layer on a
// healthy run — checkpoint journaling and the stall watchdog against the
// plain pipeline — and writes the numbers to the path in
// HARALICK4D_BENCH_RESTART_OUT; used to produce the committed
// BENCH_restart.json:
//
//	HARALICK4D_BENCH_RESTART_OUT=$PWD/BENCH_restart.json go test -run TestWriteRestartBenchJSON
func TestWriteRestartBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_RESTART_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_RESTART_OUT to regenerate BENCH_restart.json")
	}
	dir := t.TempDir()
	v := GeneratePhantom(PhantomConfig{Dims: [4]int{48, 48, 8, 8}, Seed: 11})
	if err := WriteDataset(dir, v, 3); err != nil {
		t.Fatal(err)
	}
	baseOpts := func() *Options {
		return &Options{Spec: Spec{ROI: [4]int{5, 5, 2, 2}, GrayLevels: 16, Texture: 3}}
	}

	// measure reports the min-of-3 wall time of one configuration; pipeline
	// runs carry scheduler noise a single sample does not suppress.
	measure := func(mut func(run int, o *Options)) int64 {
		t.Helper()
		var best int64
		for i := 0; i < 3; i++ {
			runtime.GC()
			opts := baseOpts()
			mut(i, opts)
			start := time.Now()
			if _, err := AnalyzeDataset(dir, opts); err != nil {
				t.Fatal(err)
			}
			if ns := int64(time.Since(start)); i == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	ckptDir := t.TempDir()
	off := measure(func(int, *Options) {})
	on := measure(func(run int, o *Options) {
		o.Checkpoint = filepath.Join(ckptDir, "bench.ckpt")
	})
	watchdog := measure(func(run int, o *Options) {
		o.Checkpoint = filepath.Join(ckptDir, "bench-wd.ckpt")
		o.StallTimeout = Duration(time.Minute)
	})

	overhead := func(ns int64) float64 { return float64(ns)/float64(off) - 1 }
	t.Logf("checkpoint off %d ns, on %d ns (%+.1f%%), +watchdog %d ns (%+.1f%%)",
		off, on, 100*overhead(on), watchdog, 100*overhead(watchdog))

	doc := struct {
		GeneratedBy string         `json:"generated_by"`
		Host        map[string]any `json:"host"`
		Workload    string         `json:"workload"`
		Results     map[string]any `json:"results"`
		Notes       []string       `json:"notes"`
	}{
		GeneratedBy: "go test -run TestWriteRestartBenchJSON (HARALICK4D_BENCH_RESTART_OUT)",
		Host: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Workload: "48x48x8x8 phantom on 3 storage nodes, ROI 5x5x2x2, G=16, paper features, AnalyzeDataset with Texture 3 on the local engine",
		Results: map[string]any{
			"checkpoint_off_ns":               off,
			"checkpoint_on_ns":                on,
			"checkpoint_watchdog_ns":          watchdog,
			"checkpoint_overhead_fraction":    overhead(on),
			"with_watchdog_overhead_fraction": overhead(watchdog),
		},
		Notes: []string{
			"each figure is the min of 3 end-to-end AnalyzeDataset wall times on a healthy (never crashing, never stalling) run",
			"checkpoint_on journals every output portion with a 1s fsync interval; with_watchdog also arms a 1-minute stall deadline",
			"overhead fractions are relative to checkpoint_off; values within run-to-run noise of 0 confirm the robustness layer is free when idle",
			"outputs are bit-identical across all three configurations (TestAnalyzeDatasetCheckpointResume)",
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

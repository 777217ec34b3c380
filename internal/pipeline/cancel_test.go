package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/readahead"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// TestTCPCancelMidRun cancels a real texture pipeline on the TCP engine
// while its pooled buffers (ParamMsg for HMP, MatrixBatchMsg for split) are
// in flight across sockets. The run must return ctx's error promptly — no
// deadlocked sender, no leaked receive loop — for both implementations.
// Run with -race to also check the pools under cancellation.
func TestTCPCancelMidRun(t *testing.T) {
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{32, 32, 6, 6}, Seed: 5})
	for _, impl := range []Impl{HMPImpl, SplitImpl} {
		t.Run(impl.String(), func(t *testing.T) {
			cfg := testConfig(impl, core.SparseMatrix, filter.DemandDriven)
			cfg.Analysis.ROI = [4]int{6, 6, 2, 2}
			cfg.ChunkShape = [4]int{12, 12, 4, 4}
			layout := &Layout{
				SourceNodes: []int{0},
				HMPNodes:    []int{1, 2},
				HCCNodes:    []int{1, 2},
				HPCNodes:    []int{2},
				OutputNodes: []int{0},
			}
			g, _, _, err := Build(memStore(t, v, 1), cfg, layout)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			done := make(chan struct{})
			var runErr error
			go func() {
				_, runErr = RunContext(ctx, g, EngineTCP, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 2)}})
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("pipeline did not stop after cancellation")
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", runErr)
			}
		})
	}
}

// TestTCPCancelMidReadAhead aborts a disk-backed TCP run whose RFR copies
// have an active read-ahead stage (workers blocked in positioned reads or in
// hand-off to the emit loop). The run must return promptly and the
// read-ahead workers must exit with it — checked by watching the process
// goroutine count return to its pre-run level. Run with -race to check the
// window/piece pools under cancellation.
func TestTCPCancelMidReadAhead(t *testing.T) {
	st := testStore(t)
	baseline := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
		// A fixed depth and the self-sized default, in turn.
		cfg.ReadAhead = []int{8, ReadAheadAuto}[trial%2]
		cfg.IOChunk = [2]int{8, 8} // many small reads: cancellation lands mid-stream
		g, _, _, err := Build(st, cfg, &Layout{
			SourceNodes: []int{0, 1, 2},
			HMPNodes:    []int{1, 2},
			OutputNodes: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func(delay time.Duration) {
			time.Sleep(delay)
			cancel()
		}(time.Duration(trial/2) * time.Millisecond)
		done := make(chan struct{})
		var runErr error
		go func() {
			_, runErr = RunContext(ctx, g, EngineTCP, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 2)}})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("pipeline did not stop after cancellation")
		}
		if runErr != nil && !errors.Is(runErr, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want nil or context.Canceled", trial, runErr)
		}
	}
	// All read-ahead workers, filter copies and receive loops must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before the runs", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPWireCodecEquivalence runs the same disk-backed pipeline on the TCP
// engine through the binary wire codec, synchronously and with read-ahead,
// and requires results identical to the local engine's synchronous
// baseline: the codec and read-ahead change only how bytes move, never what
// arrives.
func TestTCPWireCodecEquivalence(t *testing.T) {
	st := testStore(t)
	run := func(engine Engine, readAhead int) map[features.Feature]*volume.FloatGrid {
		t.Helper()
		cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
		cfg.ReadAhead = readAhead
		g, res, _, err := Build(st, cfg, &Layout{
			SourceNodes: []int{0, 1, 2},
			HMPNodes:    []int{1, 2},
			OutputNodes: []int{0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunContext(context.Background(), g, engine, nil); err != nil {
			t.Fatal(err)
		}
		if err := res.Complete(cfg.Analysis.Features); err != nil {
			t.Fatal(err)
		}
		out := map[features.Feature]*volume.FloatGrid{}
		for _, f := range cfg.Analysis.Features {
			out[f] = res.Grid(f)
		}
		return out
	}
	want := run(EngineLocal, 0)
	sync := run(EngineTCP, 0)
	ahead := run(EngineTCP, 4)
	for f := range want {
		gridsEqual(t, "tcp/"+f.String(), want[f], sync[f])
		gridsEqual(t, "tcp-readahead/"+f.String(), want[f], ahead[f])
	}
}

// TestTCPBinaryCodecGobFallback drives an AssembledMsg — deliberately left
// without a binary encoding — across a real socket via the
// JPEG output stage (HIC on one node, JIW on another), exercising the
// codec's per-message gob fallback end to end.
func TestTCPBinaryCodecGobFallback(t *testing.T) {
	st := testStore(t)
	outDir := t.TempDir()
	cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
	cfg.Output = OutputJPEG
	cfg.OutDir = outDir
	g, _, _, err := Build(st, cfg, &Layout{
		SourceNodes: []int{0, 1, 2},
		HMPNodes:    []int{1, 2},
		OutputNodes: []int{0}, // HIC
		JIWNodes:    []int{2}, // off-node writer: AssembledMsg crosses TCP
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), g, EngineTCP, nil); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(outDir, "*.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no JPEG output written through the gob-fallback path")
	}
}

// TestPipelineRunReport checks the report a real pipeline run produces: the
// paper's filters appear with their span decompositions, the texture stage's
// buffer pools record activity, and the per-filter time accounting covers
// the run.
func TestPipelineRunReport(t *testing.T) {
	st := testStore(t)
	cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
	g, res, _, err := Build(st, cfg, &Layout{HMPNodes: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunContext(context.Background(), g, EngineLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	rep := rs
	if rep == nil {
		t.Fatal("no report")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ filter, span string }{
		{"RFR", metrics.SpanRead},
		{"RFR", metrics.SpanEmit},
		{"IIC", metrics.SpanAssemble},
		{"HMP", metrics.SpanCompute},
		{"HMP", metrics.SpanEmit},
		{"OUT", metrics.SpanWrite},
	} {
		if sp := rep.Span(want.filter, want.span); sp.Count == 0 || sp.TotalNS <= 0 {
			t.Errorf("span %s/%s missing from report: %+v", want.filter, want.span, sp)
		}
	}
	hmp := rep.Filter("HMP")
	if hmp == nil {
		t.Fatal("no HMP filter in report")
	}
	if hmp.PoolHits+hmp.PoolMisses == 0 {
		t.Error("HMP recorded no buffer-pool activity")
	}
	if len(rep.Streams) == 0 {
		t.Error("no stream table")
	}
	if rep.Summary.Bottleneck == "" {
		t.Error("no bottleneck identified")
	}
	// Engine-side accounting: each copy's busy+blocked+stalled is bounded by
	// the elapsed wall time (the strict 10% two-sided check lives in
	// internal/filter where the workload is controlled).
	for _, f := range rep.Filters {
		for _, c := range f.Copies {
			if total := c.BusyNS + c.BlockedRecvNS + c.StalledSendNS; total > rep.ElapsedNS*11/10 {
				t.Errorf("%s[%d]: accounted %dns exceeds elapsed %dns", f.Name, c.Copy, total, rep.ElapsedNS)
			}
		}
	}
}

// TestReportReadAheadDepth checks what each reader copy's row says about its
// read-ahead stage: a fixed depth reports itself, a self-sized reader stays
// inside its share of the run's budget, and a synchronous reader reports
// nothing.
func TestReportReadAheadDepth(t *testing.T) {
	st := testStore(t)
	share := int64(readahead.AutoCap(st.Meta.Nodes, 2*st.Meta.Dims[0]*st.Meta.Dims[1]))
	for _, c := range []struct {
		name                     string
		depth                    int
		loDepth, hiDepth, hiPeak int64
		limit                    int64
	}{
		{"sync", 0, 0, 0, 0, 0},
		{"fixed", 3, 3, 3, 3, 3},
		{"auto", ReadAheadAuto, readahead.Floor, share, share, share},
	} {
		cfg := testConfig(HMPImpl, core.SparseMatrix, filter.DemandDriven)
		cfg.ReadAhead = c.depth
		g, _, _, err := Build(st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RunContext(context.Background(), g, EngineLocal, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, row := range rs.Filter("RFR").Copies {
			if row.ReadAheadDepth < c.loDepth || row.ReadAheadDepth > c.hiDepth || row.ReadAheadPeak > c.hiPeak || row.ReadAheadLimit != c.limit {
				t.Errorf("%s: RFR[%d] depth %d peak %d limit %d, want depth in [%d, %d], peak <= %d, limit %d",
					c.name, row.Copy, row.ReadAheadDepth, row.ReadAheadPeak, row.ReadAheadLimit, c.loDepth, c.hiDepth, c.hiPeak, c.limit)
			}
		}
	}
}

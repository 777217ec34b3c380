package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/checkpoint"
	"haralick4d/internal/core"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/volume"
)

func restartConfig() *Config {
	return testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
}

// openCheckpoint is prepareCheckpoint returning the journal it attached.
func openCheckpoint(dims [4]int, cfg *Config, path string, resume bool, interval time.Duration) (*checkpoint.Journal, *RestartSummary, error) {
	sum, err := prepareCheckpoint(dims, cfg, Checkpoint{Path: path, Resume: resume, Interval: interval})
	return cfg.Journal, sum, err
}

// TestResumeCleanJournalSkipsEverything runs a full checkpointed run, then
// resumes against the complete journal: every chunk must be skipped, the
// readers must emit nothing, and the restored output must still be exact.
func TestResumeCleanJournalSkipsEverything(t *testing.T) {
	st := testStore(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")

	ref, err := Sequential(st, restartConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := restartConfig()
	j, sum, err := openCheckpoint(st.Meta.Dims, cfg, path, false, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if sum != nil {
		t.Fatalf("fresh checkpoint reported a restart: %+v", sum)
	}
	g, res, _, err := Build(st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err != nil {
		t.Fatal(err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := restartConfig()
	j2, sum2, err := openCheckpoint(st.Meta.Dims, cfg2, path, true, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if sum2.SkippedChunks != sum2.TotalChunks {
		t.Fatalf("clean journal skipped %d of %d chunks", sum2.SkippedChunks, sum2.TotalChunks)
	}
	if sum2.Portions == 0 || sum2.Voxels == 0 {
		t.Fatalf("clean journal recovered nothing: %+v", sum2)
	}
	if sum2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", sum2.TruncatedBytes)
	}
	g2, res2, _, err := Build(st, cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(g2, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range stats.Filter("RFR").Copies {
		if cs.MsgsOut != 0 {
			t.Fatalf("resumed run re-read data: RFR sent %d msgs", cs.MsgsOut)
		}
	}
	if err := res2.Complete(cfg2.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg2.Analysis.Features {
		gridsEqual(t, "resume-"+f.String(), ref[f], res2.Grid(f))
	}
}

// TestCrashThenResumeMatchesOracle kills the texture filter mid-run on both
// real engines, then resumes from the journal: the combined output of the
// two lives must be bit-identical to the sequential reference.
func TestCrashThenResumeMatchesOracle(t *testing.T) {
	engines := map[string]Engine{"local": EngineLocal, "tcp": EngineTCP}
	for name, engine := range engines {
		t.Run(name, func(t *testing.T) {
			st := testStore(t)
			path := filepath.Join(t.TempDir(), "run.ckpt")
			ref, err := Sequential(st, restartConfig())
			if err != nil {
				t.Fatal(err)
			}

			cfg := restartConfig()
			j, _, err := openCheckpoint(st.Meta.Dims, cfg, path, false, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			g, _, _, err := Build(st, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			spec, ok := g.Filter("HMP")
			if !ok {
				t.Fatal("no HMP filter in graph")
			}
			spec.New = fault.CrashAfter(spec.New, 0, 3)
			if _, err := Run(g, engine, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err == nil {
				t.Fatal("crashed run reported success")
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			cfg2 := restartConfig()
			j2, sum, err := openCheckpoint(st.Meta.Dims, cfg2, path, true, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			t.Logf("recovered %d portions, skipped %d/%d chunks, %d torn bytes",
				sum.Portions, sum.SkippedChunks, sum.TotalChunks, sum.TruncatedBytes)
			g2, res, _, err := Build(st, cfg2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(g2, engine, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err != nil {
				t.Fatal(err)
			}
			if err := res.Complete(cfg2.Analysis.Features); err != nil {
				t.Fatal(err)
			}
			for _, f := range cfg2.Analysis.Features {
				gridsEqual(t, "crash-resume-"+f.String(), ref[f], res.Grid(f))
			}
		})
	}
}

// TestCrashThenResumeUSO crashes a disk-output run: the crash must leave no
// finished record file behind (only ignored temporaries), and the resumed
// run's stitched directory must match the sequential reference exactly.
func TestCrashThenResumeUSO(t *testing.T) {
	st := testStore(t)
	dir := t.TempDir()
	outDir := filepath.Join(dir, "uso")
	if err := os.Mkdir(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.ckpt")
	ref, err := Sequential(st, restartConfig())
	if err != nil {
		t.Fatal(err)
	}

	usoConfig := func() *Config {
		cfg := restartConfig()
		cfg.Output = OutputUSO
		cfg.OutDir = outDir
		return cfg
	}

	cfg := usoConfig()
	j, _, err := openCheckpoint(st.Meta.Dims, cfg, path, false, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	g, _, outDims, err := Build(st, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := g.Filter("HMP")
	if !ok {
		t.Fatal("no HMP filter in graph")
	}
	spec.New = fault.CrashAfter(spec.New, 0, 2)
	if _, err := Run(g, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err == nil {
		t.Fatal("crashed run reported success")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bin") {
			t.Fatalf("crashed run left finished record file %s", e.Name())
		}
	}

	cfg2 := usoConfig()
	j2, _, err := openCheckpoint(st.Meta.Dims, cfg2, path, true, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	g2, _, _, err := Build(st, cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g2, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err != nil {
		t.Fatal(err)
	}
	got, err := filters.ReadUSODir(outDir, outDims)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg2.Analysis.Features {
		gridsEqual(t, "uso-resume-"+f.String(), ref[f], got[f])
	}
}

// TestPartialJournalSkipsRecoveredChunk hand-builds a journal covering
// exactly one chunk's outputs: the resume must prune that chunk and the
// merged run must still be exact. Unlike the crash tests this path is fully
// deterministic — the skip-set is known in advance.
func TestPartialJournalSkipsRecoveredChunk(t *testing.T) {
	st := testStore(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ref, err := Sequential(st, restartConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := restartConfig()
	j, _, err := openCheckpoint(st.Meta.Dims, cfg, path, false, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	chunker, err := volume.NewChunker(st.Meta.Dims, cfg.ChunkShape, cfg.Analysis.ROI)
	if err != nil {
		t.Fatal(err)
	}
	ch := chunker.Chunk(0)
	for _, f := range cfg.Analysis.Features {
		vals := extractBox(ref[f], ch.Origins)
		if err := j.AppendPortion(int(f), ch.Origins, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := restartConfig()
	j2, sum, err := openCheckpoint(st.Meta.Dims, cfg2, path, true, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if sum.SkippedChunks != 1 {
		t.Fatalf("skipped %d chunks, want 1", sum.SkippedChunks)
	}
	if sum.Portions != len(cfg2.Analysis.Features) {
		t.Fatalf("recovered %d portions, want %d", sum.Portions, len(cfg2.Analysis.Features))
	}
	g, res, _, err := Build(st, cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err != nil {
		t.Fatal(err)
	}
	if err := res.Complete(cfg2.Analysis.Features); err != nil {
		t.Fatal(err)
	}
	for _, f := range cfg2.Analysis.Features {
		gridsEqual(t, "partial-resume-"+f.String(), ref[f], res.Grid(f))
	}
}

// extractBox copies a box of a FloatGrid in raster (x-fastest) order — the
// wire order of ParamMsg values.
func extractBox(g *volume.FloatGrid, b volume.Box) []float64 {
	out := make([]float64, 0, b.NumVoxels())
	for t := b.Lo[3]; t < b.Hi[3]; t++ {
		for z := b.Lo[2]; z < b.Hi[2]; z++ {
			for y := b.Lo[1]; y < b.Hi[1]; y++ {
				for x := b.Lo[0]; x < b.Hi[0]; x++ {
					out = append(out, g.At(x, y, z, t))
				}
			}
		}
	}
	return out
}

// TestCheckpointRejectsJPEGOutput: the JPEG path stitches whole volumes in
// memory, so there is nothing durable to journal — both the preparer and
// the config validator must refuse it.
func TestCheckpointRejectsJPEGOutput(t *testing.T) {
	st := testStore(t)
	cfg := restartConfig()
	cfg.Output = OutputJPEG
	cfg.OutDir = t.TempDir()
	if _, _, err := openCheckpoint(st.Meta.Dims, cfg, filepath.Join(cfg.OutDir, "j"), false, 0); err == nil {
		t.Fatal("prepareCheckpoint accepted JPEG output")
	}
	cfg2 := restartConfig()
	cfg2.Output = OutputJPEG
	cfg2.OutDir = t.TempDir()
	cfg2.Journal = &checkpoint.Journal{}
	if err := cfg2.Validate(st.Meta.Dims); err == nil {
		t.Fatal("Validate accepted JPEG output with a journal")
	}
}

// TestResumeConfigMismatch: resuming with a different analysis
// configuration must fail with ErrMismatch, not silently mix outputs.
func TestResumeConfigMismatch(t *testing.T) {
	st := testStore(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := restartConfig()
	j, _, err := openCheckpoint(st.Meta.Dims, cfg, path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg2 := restartConfig()
	cfg2.Analysis.GrayLevels = 8
	if _, _, err := openCheckpoint(st.Meta.Dims, cfg2, path, true, 0); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume with changed config: err = %v, want ErrMismatch", err)
	}
}

// TestSplitResumeAcrossPortionBoxes: a split run journals one portion per
// HCC grain, where earlier builds journaled a chunk in four packets. Portions
// of both cuts of one chunk would overfill it on a later resume, so a
// journal resumes only a run that cuts the same way:
//   - a split journal without the split mark — what the packet-cutting
//     build wrote — is refused with ErrMismatch, on every resume, and is
//     left as it was;
//   - a split journal cut mid-chunk resumes to completion, and then again
//     with every chunk skipped;
//   - a kernel worker count whose grains cut planes differently is refused.
func TestSplitResumeAcrossPortionBoxes(t *testing.T) {
	st := testStore(t)
	dir := t.TempDir()
	splitConfig := func(workers int) *Config {
		cfg := testConfig(SplitImpl, core.SparseMatrix, filter.DemandDriven)
		cfg.Analysis.Workers = workers
		return cfg
	}
	ref, err := Sequential(st, splitConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(tag string, cfg *Config) {
		t.Helper()
		g, res, _, err := Build(st, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(g, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4)}}); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if err := res.Complete(cfg.Analysis.Features); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for _, f := range cfg.Analysis.Features {
			gridsEqual(t, tag+"-"+f.String(), ref[f], res.Grid(f))
		}
	}

	// The packet-cutting build's journal: chunk 0's first two of four
	// packets, cut along y.
	cfg := splitConfig(1)
	hdr, chunker, err := header(st.Meta.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdr.Split, hdr.GrainWorkers = false, 0
	packets := filepath.Join(dir, "packets.ckpt")
	j, err := checkpoint.Create(packets, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	origins := chunker.Chunk(0).Origins
	for _, f := range cfg.Analysis.Features {
		for i := 0; i < 2; i++ {
			box := origins
			sy := origins.Shape()[1]
			box.Lo[1], box.Hi[1] = origins.Lo[1]+i*sy/4, origins.Lo[1]+(i+1)*sy/4
			if err := j.AppendPortion(int(f), box, extractBox(ref[f], box)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(packets)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := openCheckpoint(st.Meta.Dims, splitConfig(1), packets, true, 0); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("resume %d of a packet journal: err = %v, want ErrMismatch", i+1, err)
		}
	}
	if after, err := os.ReadFile(packets); err != nil || string(after) != string(before) {
		t.Fatalf("a refused resume changed the journal (err %v)", err)
	}

	// A clean split run's journal, cut to the first grain of chunk 0.
	full := filepath.Join(dir, "full.ckpt")
	cfg = splitConfig(2)
	if _, _, err := openCheckpoint(st.Meta.Dims, cfg, full, false, 0); err != nil {
		t.Fatal(err)
	}
	run("clean", cfg)
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	cfg = splitConfig(2)
	if _, _, err := openCheckpoint(st.Meta.Dims, cfg, full, true, 0); err != nil {
		t.Fatal(err)
	}
	portions := cfg.Recovered.Portions
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.ckpt")
	cfg = splitConfig(2)
	if _, _, err := openCheckpoint(st.Meta.Dims, cfg, cut, false, 0); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, p := range portions {
		if origins.ContainsBox(p.Box) && p.Box.Lo != origins.Lo {
			continue
		}
		if p.Box.Lo == origins.Lo && p.Box == origins {
			t.Fatal("chunk 0 was journaled whole: no grain to cut it at")
		}
		if err := cfg.Journal.AppendPortion(p.Feature, p.Box, p.Values); err != nil {
			t.Fatal(err)
		}
		kept++
	}
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if kept == len(portions) {
		t.Fatal("the cut journal holds every portion")
	}
	for i, want := range []int{chunker.Count() - 1, chunker.Count()} {
		cfg = splitConfig(2)
		_, sum, err := openCheckpoint(st.Meta.Dims, cfg, cut, true, 0)
		if err != nil {
			t.Fatalf("resume %d of a cut split journal: %v", i+1, err)
		}
		if sum.SkippedChunks != want {
			t.Fatalf("resume %d skipped %d chunks, want %d", i+1, sum.SkippedChunks, want)
		}
		run(fmt.Sprintf("resume-%d", i+1), cfg)
		if err := cfg.Journal.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := openCheckpoint(st.Meta.Dims, splitConfig(4), cut, true, 0); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume at 4 kernel workers of a journal cut at 2: err = %v, want ErrMismatch", err)
	}
}

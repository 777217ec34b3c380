package haralick4d

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzeDatasetCheckpointResume drives the checkpoint/restart flow
// through the façade: a checkpointed run, then a resume against its complete
// journal, must produce bit-identical grids while recovering every chunk
// from the journal instead of recomputing.
func TestAnalyzeDatasetCheckpointResume(t *testing.T) {
	dir, _ := chaosDataset(t, false)
	ref, err := AnalyzeDataset(dir, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opts := smallOpts(3)
	opts.Checkpoint = ckpt
	res, err := AnalyzeDataset(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restart != nil {
		t.Fatal("fresh checkpointed run populated Result.Restart")
	}
	for f, want := range ref.Grids {
		got := res.Grids[f]
		if got == nil {
			t.Fatalf("%v: missing grid", f)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%v: voxel %d differs under checkpointing", f, i)
			}
		}
	}

	ropts := smallOpts(3)
	ropts.Checkpoint = ckpt
	ropts.Resume = true
	res2, err := AnalyzeDataset(dir, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Restart == nil {
		t.Fatal("resumed run did not populate Result.Restart")
	}
	if res2.Restart.SkippedChunks != res2.Restart.TotalChunks || res2.Restart.TotalChunks == 0 {
		t.Fatalf("resume against a complete journal skipped %d/%d chunks",
			res2.Restart.SkippedChunks, res2.Restart.TotalChunks)
	}
	if res2.Restart.Portions == 0 || res2.Restart.Voxels == 0 {
		t.Fatalf("resume recovered nothing: %+v", res2.Restart)
	}
	for f, want := range ref.Grids {
		got := res2.Grids[f]
		if got == nil {
			t.Fatalf("%v: missing grid after resume", f)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%v: voxel %d differs after resume", f, i)
			}
		}
	}
}

// TestCheckpointResumeConfigMismatch: resuming with changed analysis
// options must fail with ErrCheckpointMismatch.
func TestCheckpointResumeConfigMismatch(t *testing.T) {
	dir, _ := chaosDataset(t, false)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	opts := smallOpts(3)
	opts.Checkpoint = ckpt
	if _, err := AnalyzeDataset(dir, opts); err != nil {
		t.Fatal(err)
	}
	bad := smallOpts(3)
	bad.GrayLevels = 8
	bad.Checkpoint = ckpt
	bad.Resume = true
	if _, err := AnalyzeDataset(dir, bad); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume with changed options: err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestRestartOptionValidation covers the option-combination errors of the
// checkpoint/watchdog subset.
func TestRestartOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"resume-without-checkpoint", func(o *Options) { o.Resume = true }, "Resume requires"},
		{"negative-interval", func(o *Options) { o.Checkpoint = "j"; o.CheckpointInterval = -1 }, "CheckpointInterval"},
		{"interval-without-checkpoint", func(o *Options) { o.CheckpointInterval = 1 }, "CheckpointInterval"},
		{"negative-stall", func(o *Options) { o.StallTimeout = -1 }, "stall_timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := smallOpts(1)
			tc.mut(o)
			err := o.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestAnalyzeRejectsCheckpoint: the in-memory path has no disk inputs to
// re-read on a later life, so checkpointing must be refused, not ignored.
func TestAnalyzeRejectsCheckpoint(t *testing.T) {
	opts := smallOpts(1)
	opts.Checkpoint = filepath.Join(t.TempDir(), "j")
	_, err := Analyze(phantom(t), opts)
	if err == nil || !strings.Contains(err.Error(), "disk-resident") {
		t.Fatalf("Analyze with Checkpoint: err = %v, want disk-resident rejection", err)
	}
}

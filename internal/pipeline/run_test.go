package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haralick4d/internal/filter"
	"haralick4d/internal/runspec"
)

// smallSpec is a quick run over testStore's 24×20×4×6 study into the
// in-memory sink.
func smallSpec() runspec.Spec {
	return runspec.Spec{Output: runspec.OutputNone, ROI: runspec.Shape{5, 5, 2, 2}, GrayLevels: 8, Texture: 2}
}

// openFDs counts this process's descriptors open on path.
func openFDs(t *testing.T, path string) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestPrepareClosesJournalOnBuildError: a Build that fails after the
// journal is opened leaves no descriptor on it, fresh or resumed.
func TestPrepareClosesJournalOnBuildError(t *testing.T) {
	st := testStore(t)
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// One RFR copy for three storage nodes: ConfigFor and the checkpoint
	// accept it, Build refuses it.
	oneReader := func(_ *Config, l *Layout) error {
		l.SourceNodes = []int{0}
		return nil
	}
	for _, resume := range []bool{false, true} {
		_, err := Prepare(st, &spec, Checkpoint{Path: path, Resume: resume}, oneReader)
		if err == nil || !strings.Contains(err.Error(), "RFR copies") {
			t.Fatalf("resume=%v: err = %v, want Build's RFR copy error", resume, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("resume=%v: the journal was never opened: %v", resume, err)
		}
		if n := openFDs(t, path); n != 0 {
			t.Fatalf("resume=%v: %d descriptors left open on the journal", resume, n)
		}
	}
}

// TestRunFailsOnIncompleteSink: a run whose collect sink did not receive
// every value fails, on every front end, instead of returning a hole.
func TestRunFailsOnIncompleteSink(t *testing.T) {
	st := testStore(t)
	spec := smallSpec()
	p, err := Prepare(st, &spec, Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := p.Graph.Filter("OUT")
	if !ok {
		t.Fatal("no OUT filter in a collect run")
	}
	// Drain every parameter portion before it reaches the sink.
	out.New = func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}
	if _, _, err := p.Run(context.Background(), EngineLocal, nil); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("err = %v, want the sink's incompleteness", err)
	}
}

// TestRunClosesJournalAndReportsBackend: a checkpointed run leaves no
// descriptor on its journal, and its report carries the backend row.
func TestRunClosesJournalAndReportsBackend(t *testing.T) {
	st := testStore(t)
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	p, err := Prepare(st, &spec, Checkpoint{Path: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Restart != nil {
		t.Errorf("fresh run reported a restart: %v", p.Restart)
	}
	rs, degraded, err := p.Run(context.Background(), EngineLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := openFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors left open on the journal", n)
	}
	if p.Results == nil || degraded != nil {
		t.Fatalf("collect run: results %v, degraded %v", p.Results, degraded)
	}
	if b := rs.Backends; len(b) != 1 || b[0].Scheme != "file" {
		t.Fatalf("report backends %+v, want one file row", b)
	}
	p, err = Prepare(st, &spec, Checkpoint{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Restart == nil || p.Restart.SkippedChunks != p.Restart.TotalChunks {
		t.Fatalf("resume of a complete journal: %v", p.Restart)
	}
	if _, _, err := p.Run(context.Background(), EngineLocal, nil); err != nil {
		t.Fatal(err)
	}
}

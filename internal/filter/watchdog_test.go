// External test package: these tests wedge filters with the fault
// package's injectors, and fault imports filter.
package filter_test

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
)

type wdPayload int

func (wdPayload) SizeBytes() int { return 8 }

func init() { gob.Register(wdPayload(0)) }

// wedgedReaderGraph builds SRC → SNK where SRC reads a real file through a
// SlowReaderAt whose delay far exceeds any test timeout — a straggling disk
// that has effectively hung.
func wedgedReaderGraph(t *testing.T, delay time.Duration) *filter.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "SRC", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			r := &fault.SlowReaderAt{R: f, Delay: delay}
			buf := make([]byte, 512)
			for i := 0; i < 8; i++ {
				if _, err := r.ReadAt(buf, int64(i)*512); err != nil {
					return err
				}
				if err := ctx.Send("out", wdPayload(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "SNK", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "SRC", FromPort: "out", To: "SNK", ToPort: "in", Policy: filter.RoundRobin})
	return g
}

func TestWatchdogNamesWedgedReader(t *testing.T) {
	engines := map[string]func(*filter.Graph, *filter.Options) (*metrics.RunReport, error){
		"local": filter.RunLocal,
		"tcp":   filter.RunTCP,
	}
	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			g := wedgedReaderGraph(t, time.Hour)
			start := time.Now()
			_, err := run(g, &filter.Options{StallTimeout: 300 * time.Millisecond})
			elapsed := time.Since(start)
			if !errors.Is(err, filter.ErrStalled) {
				t.Fatalf("err = %v, want ErrStalled", err)
			}
			// Timely: the run must end near the deadline, not hang for the
			// injected hour.
			if elapsed > 10*time.Second {
				t.Fatalf("watchdog took %v to trip a 300ms deadline", elapsed)
			}
			var se *filter.StallError
			if !errors.As(err, &se) {
				t.Fatalf("err %T does not unwrap to *StallError", err)
			}
			if len(se.Stalled) == 0 || se.Stalled[0].Filter != "SRC" {
				t.Fatalf("stalled copies %+v, want SRC first (the wedged reader, not its starved consumer)", se.Stalled)
			}
			if se.Stalled[0].State != "busy" {
				t.Errorf("SRC state = %q, want busy (stuck inside the read call)", se.Stalled[0].State)
			}
			if !strings.Contains(err.Error(), "SRC") {
				t.Errorf("diagnostic %q does not name the stalled filter", err)
			}
		})
	}
}

func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	// The per-read delay is real but modest; the pipeline makes progress on
	// every read, so the global no-progress deadline must never trip even
	// though the whole run takes far longer than the timeout.
	g := wedgedReaderGraph(t, 20*time.Millisecond)
	if _, err := filter.RunLocal(g, &filter.Options{StallTimeout: 80 * time.Millisecond}); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

package pipeline

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/sem"
	"haralick4d/internal/volume"
)

// TestAdmissionWhipsawMatchesOracle is the scheduling-only contract of the
// injected compute-admission semaphore (the daemon governor's hook): while a
// goroutine swings its limit between 1 and the texture copy count for the
// whole run, the grids stay bit-identical to the workers = 1 oracle and every
// credit comes home.
func TestAdmissionWhipsawMatchesOracle(t *testing.T) {
	st := testStore(t)
	reps := []core.Representation{core.FullMatrix, core.SparseMatrix}
	oracles := map[core.Representation]map[features.Feature]*volume.FloatGrid{}
	for _, rep := range reps {
		cfg := testConfig(HMPImpl, rep, filter.DemandDriven)
		cfg.Analysis.Workers = 1
		ref, err := Sequential(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracles[rep] = ref
	}
	for _, engine := range []Engine{EngineLocal, EngineTCP} {
		for _, impl := range []Impl{HMPImpl, SplitImpl} {
			for _, rep := range reps {
				t.Run(fmt.Sprintf("%v-%v-%v", engine, impl, rep), func(t *testing.T) {
					cfg := testConfig(impl, rep, filter.DemandDriven)
					cfg.Analysis.Workers = 4
					layout := &Layout{HMPNodes: []int{3, 4}, HCCNodes: []int{3, 4}, HPCNodes: []int{3, 4}}
					copies := 2
					if impl == SplitImpl {
						copies = 4 // one pool across both halves
					}
					cfg.Admission = sem.New(copies, 1, copies)
					g, res, _, err := Build(st, cfg, layout)
					if err != nil {
						t.Fatal(err)
					}
					stop := make(chan struct{})
					done := make(chan struct{})
					resizes := 0 // read only after done
					go func() {
						defer close(done)
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							cfg.Admission.Resize(1 + i%2*(copies-1))
							resizes++
							runtime.Gosched()
						}
					}()
					// A credit that never comes home wedges the run: the
					// watchdog turns that into a failure instead of a hang.
					_, err = Run(g, engine, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 4), StallTimeout: 10 * time.Second}})
					close(stop)
					<-done
					if err != nil {
						t.Fatal(err)
					}
					if resizes < 2 {
						t.Fatalf("the limit moved %d times during the run", resizes)
					}
					if err := res.Complete(cfg.Analysis.Features); err != nil {
						t.Fatal(err)
					}
					for _, f := range cfg.Analysis.Features {
						gridsEqual(t, f.String(), oracles[rep][f], res.Grid(f))
					}
					// Every credit is home: the whole range fits at once only
					// when nothing is held, and a request that fits is admitted
					// even with stop closed.
					cfg.Admission.Resize(copies)
					if !cfg.Admission.Acquire(copies, stop) {
						t.Fatal("admission credits still held after the run")
					}
				})
			}
		}
	}
}

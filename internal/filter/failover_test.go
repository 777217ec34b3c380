package filter

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"haralick4d/internal/metrics"
)

// crashyForward forwards every buffer, except that crashCopy panics while
// holding its after-th buffer — before forwarding it, so redelivery to a
// survivor is the only way the buffer reaches the sink.
func crashyForward(crashCopy, after int) func(int) Filter {
	return func(copy int) Filter {
		return Func(func(ctx Context) error {
			seen := 0
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				if copy == crashCopy {
					seen++
					if seen == after {
						panic(fmt.Sprintf("injected crash holding buffer %d", seen))
					}
				}
				if err := ctx.Send("out", m.Payload); err != nil {
					return err
				}
			}
		})
	}
}

// failoverGraph builds source(n) → work (copies, policy, one crash) → sink.
func failoverGraph(n, copies, crashCopy, after int, policy Policy, workNodes []int) (*Graph, func() []int) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(n)})
	g.AddFilter(FilterSpec{Name: "work", Copies: copies, New: crashyForward(crashCopy, after), Nodes: workNodes})
	sink, got := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: policy})
	g.Connect(ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	return g, got
}

func checkExactlyOnce(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("sink received %d buffers, want %d", len(got), n)
	}
	sorted := append([]int(nil), got...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("sink contents %v: position %d holds %d", sorted, i, v)
		}
	}
}

func checkFailoverReport(t *testing.T, rs *metrics.RunReport) {
	t.Helper()
	if rs == nil {
		t.Fatal("run report missing")
	}
	for _, f := range rs.Filters {
		if f.Name != "work" {
			continue
		}
		if f.CopyFailures != 1 {
			t.Errorf("work CopyFailures = %d, want 1", f.CopyFailures)
		}
		if f.Redelivered < 1 {
			t.Errorf("work Redelivered = %d, want >= 1", f.Redelivered)
		}
		failed := 0
		for _, c := range f.Copies {
			if c.Failed {
				failed++
				if c.Failure == "" {
					t.Error("failed copy has no failure message")
				}
			}
		}
		if failed != 1 {
			t.Errorf("%d copies marked failed, want 1", failed)
		}
		return
	}
	t.Fatal("work filter missing from report")
}

func TestFailoverRedeliveryLocal(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, DemandDriven} {
		t.Run(policy.String(), func(t *testing.T) {
			const n = 100
			g, got := failoverGraph(n, 3, 1, 5, policy, nil)
			// Queues of 32 buffers, the engine's old default: demand-driven
			// feeds the crash copy its five only while its siblings' queues
			// fill, which 100 eight-byte buffers never do to 16 MiB.
			rs, err := RunLocal(g, &Options{Failover: true, QueueBytes: 32 * 8})
			if err != nil {
				t.Fatalf("run with failover: %v", err)
			}
			checkExactlyOnce(t, got(), n)
			checkFailoverReport(t, rs)
		})
	}
}

func TestFailoverRedeliveryTCP(t *testing.T) {
	const n = 60
	// RoundRobin (not DemandDriven): over TCP the demand-driven policy can
	// starve the crash copy entirely, leaving the injected fault unfired.
	g, got := failoverGraph(n, 3, 1, 5, RoundRobin, []int{0, 1, 2})
	rs, err := RunTCP(g, &Options{Failover: true, QueueBytes: 32 * 8})
	if err != nil {
		t.Fatalf("run with failover: %v", err)
	}
	checkExactlyOnce(t, got(), n)
	checkFailoverReport(t, rs)
}

// TestFailoverRedeliverySim: failover under the virtual clock — the dead
// copy's drainer is a task like the copies, and survivors take over its
// buffers exactly once.
func TestFailoverRedeliverySim(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, DemandDriven} {
		t.Run(policy.String(), func(t *testing.T) {
			const n = 100
			g, got := failoverGraph(n, 3, 1, 5, policy, []int{1, 2, 3})
			rs, err := RunSim(context.Background(), g, flatMachine{nodes: 4, latency: time.Millisecond}, 1,
				&Options{Failover: true, QueueBytes: 32 * 8})
			if err != nil {
				t.Fatalf("run with failover: %v", err)
			}
			checkExactlyOnce(t, got(), n)
			checkFailoverReport(t, rs)
		})
	}
}

func TestFailoverAllCopiesDead(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(50)})
	// Every copy crashes on its 3rd buffer; the last death is terminal.
	g.AddFilter(FilterSpec{Name: "work", Copies: 2, New: func(copy int) Filter {
		return crashyForward(copy, 3)(copy)
	}})
	sink, _ := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: RoundRobin})
	g.Connect(ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	_, err := RunLocal(g, &Options{Failover: true})
	if !errors.Is(err, ErrAllCopiesDead) {
		t.Fatalf("err = %v, want ErrAllCopiesDead", err)
	}
}

func TestFailoverIneligibleExplicitInbound(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: func(copy int) Filter {
		return Func(func(ctx Context) error {
			for i := 0; i < 20; i++ {
				if err := ctx.SendTo("out", i%2, intPayload(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(FilterSpec{Name: "work", Copies: 2, New: crashyForward(0, 3)})
	sink, _ := collect()
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: Explicit})
	g.Connect(ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	// Explicitly-addressed copies hold partitioned state; failover must not
	// absorb their crashes even when enabled.
	_, err := RunLocal(g, &Options{Failover: true})
	if !errors.Is(err, ErrCopyFailed) {
		t.Fatalf("err = %v, want ErrCopyFailed", err)
	}
}

func TestFailoverDisabledCrashStillFails(t *testing.T) {
	g, _ := failoverGraph(50, 3, 1, 5, RoundRobin, nil)
	_, err := RunLocal(g, nil)
	if err == nil {
		t.Fatal("crash absorbed with failover disabled")
	}
	if !errors.Is(err, ErrCopyFailed) {
		t.Fatalf("err = %v, want ErrCopyFailed", err)
	}
}

package filter

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// sized is a payload that claims the given number of bytes.
type sized int

func (p sized) SizeBytes() int { return int(p) }

func init() { gob.Register(sized(0)) }

// engines runs a test body on the local engine and, with producer and
// consumer on different nodes, on the TCP engine.
func engines(t *testing.T, body func(t *testing.T, tcp bool)) {
	t.Run("local", func(t *testing.T) { body(t, false) })
	t.Run("tcp", func(t *testing.T) { body(t, true) })
}

// start launches a run the way RunLocalContext/RunTCPContext do and hands
// back the runtime, so a test can watch the queues it fills.
func start(t *testing.T, ctx context.Context, g *Graph, opts *Options, tcp bool) (*runtime, <-chan error) {
	t.Helper()
	rt, err := newRuntime(g, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.engine = "local"
	var tr *tcpTransport
	if tcp {
		if tr, err = newTCPTransport(rt, g.NumNodes(), opts); err != nil {
			t.Fatal(err)
		}
		rt.trans, rt.engine = tr, "tcp"
	}
	done := make(chan error, 1)
	go func() {
		_, err := rt.run(ctx)
		if tr != nil {
			tr.wait()
		}
		done <- err
	}()
	return rt, done
}

// until spins until cond holds: synchronisation with the run, never an
// assertion.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		goruntime.Gosched()
	}
}

func finish(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return")
		return nil
	}
}

func nodes(tcp bool, n int) []int {
	if !tcp {
		return nil
	}
	return []int{n}
}

// TestQueueByteBudget: a consumer that does not receive holds its producer at
// the byte budget — the queue fills to exactly the budget's worth of buffers,
// the producer blocks in Send with no more than that delivered, and over the
// whole run the queue never held more.
func TestQueueByteBudget(t *testing.T) {
	engines(t, func(t *testing.T, tcp bool) {
		const size, budget, n = 100, 1000, 500
		var sent atomic.Int64
		sentAtFirstRecv := int64(-1)
		release := make(chan struct{})
		g := NewGraph()
		g.AddFilter(FilterSpec{Name: "src", Copies: 1, Nodes: nodes(tcp, 0), New: func(int) Filter {
			return Func(func(ctx Context) error {
				for i := 0; i < n; i++ {
					if err := ctx.Send("out", sized(size)); err != nil {
						return err
					}
					sent.Add(1)
				}
				return nil
			})
		}})
		g.AddFilter(FilterSpec{Name: "sink", Copies: 1, Nodes: nodes(tcp, 1), New: func(int) Filter {
			return Func(func(ctx Context) error {
				<-release
				sentAtFirstRecv = sent.Load()
				for {
					if _, ok := ctx.Recv(); !ok {
						return nil
					}
				}
			})
		}})
		g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
		rt, done := start(t, context.Background(), g, &Options{QueueBytes: budget}, tcp)
		sink := rt.copies["sink"]
		until(t, "the queue to fill", func() bool { return queuedBytesMax(sink) == budget })
		if !tcp {
			// In memory the producer is the one blocked (over TCP it still
			// fills the socket while the receive loop is).
			until(t, "the producer to block", func() bool {
				return rt.copies["src"][0].phase.Load() == phaseSend && sent.Load() == budget/size
			})
		}
		close(release)
		if err := finish(t, done); err != nil {
			t.Fatal(err)
		}
		if !tcp && sentAtFirstRecv != budget/size {
			t.Errorf("%d buffers delivered before the consumer's first Recv, want the budget's %d", sentAtFirstRecv, budget/size)
		}
		if peak := queuedBytesMax(sink); peak != budget {
			t.Errorf("queue held %d bytes at most, want exactly the budget %d", peak, budget)
		}
	})
}

// TestQueueOversizeBuffer: a buffer larger than the whole budget crosses an
// empty queue alone instead of wedging its producer, and the report says so
// and still validates.
func TestQueueOversizeBuffer(t *testing.T) {
	engines(t, func(t *testing.T, tcp bool) {
		const budget, huge = 100, 10_000
		var got atomic.Int64
		g := NewGraph()
		g.AddFilter(FilterSpec{Name: "src", Copies: 1, Nodes: nodes(tcp, 0), New: func(int) Filter {
			return Func(func(ctx Context) error {
				for _, n := range []int{huge, 10, huge, huge, 10} {
					if err := ctx.Send("out", sized(n)); err != nil {
						return err
					}
				}
				return nil
			})
		}})
		g.AddFilter(FilterSpec{Name: "sink", Copies: 1, Nodes: nodes(tcp, 1), New: func(int) Filter {
			return Func(func(ctx Context) error {
				for {
					m, ok := ctx.Recv()
					if !ok {
						return nil
					}
					got.Add(int64(m.Payload.SizeBytes()))
				}
			})
		}})
		g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
		_, done := start(t, context.Background(), g, &Options{QueueBytes: budget}, tcp)
		if err := finish(t, done); err != nil {
			t.Fatal(err)
		}
		if got.Load() != 3*huge+20 {
			t.Fatalf("sink received %d bytes, want %d", got.Load(), 3*huge+20)
		}
	})
	// The report of the same run through the public entry point.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error { return ctx.Send("out", sized(10_000)) })
	}})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: discard})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	rs, err := RunLocal(g, &Options{QueueBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	s := rs.Streams[0]
	if s.QueuedBytesMax != 10_000 || s.BudgetBytes != 100 || s.BufferBytesMax != 10_000 {
		t.Errorf("stream row queued %d, budget %d, largest %d; want 10000, 100, 10000", s.QueuedBytesMax, s.BudgetBytes, s.BufferBytesMax)
	}
	if err := rs.Validate(); err != nil {
		t.Errorf("report with an oversize buffer does not validate: %v", err)
	}
	s.QueuedBytesMax = 10_200
	rs.Streams[0] = s
	if err := rs.Validate(); err == nil {
		t.Error("a queue over its budget plus its largest buffer validated")
	}
}

// discard is a sink that drops whatever it receives.
func discard(int) Filter {
	return Func(func(ctx Context) error {
		for {
			if _, ok := ctx.Recv(); !ok {
				return nil
			}
		}
	})
}

// TestQueueCancelWhileBlocked: cancelling the run while a producer (or the
// TCP receive loop on its behalf) waits for queue bytes returns promptly with
// the context's error.
func TestQueueCancelWhileBlocked(t *testing.T) {
	engines(t, func(t *testing.T, tcp bool) {
		const budget = 1000
		g := NewGraph()
		g.AddFilter(FilterSpec{Name: "src", Copies: 1, Nodes: nodes(tcp, 0), New: func(int) Filter {
			return Func(func(ctx Context) error {
				for {
					if err := ctx.Send("out", sized(100)); err != nil {
						return err
					}
				}
			})
		}})
		g.AddFilter(FilterSpec{Name: "sink", Copies: 1, Nodes: nodes(tcp, 1), New: func(int) Filter {
			return Func(func(ctx Context) error {
				<-ctx.(interface{ RunContext() context.Context }).RunContext().Done()
				return nil
			})
		}})
		g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rt, done := start(t, ctx, g, &Options{QueueBytes: budget}, tcp)
		until(t, "the queue to fill", func() bool { return queuedBytesMax(rt.copies["sink"]) == budget })
		if !tcp {
			until(t, "the producer to block", func() bool { return rt.copies["src"][0].phase.Load() == phaseSend })
		}
		cancel()
		if err := finish(t, done); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestFailoverReturnsQueueCredits: a copy dies with its queue full and the
// producer blocked on it. The drainer that inherits the queue must hand the
// queued buffers' credits back as it requeues them, or the producer — and
// with it the redelivery — would wedge behind the dead copy's budget.
func TestFailoverReturnsQueueCredits(t *testing.T) {
	engines(t, func(t *testing.T, tcp bool) {
		const n, budget = 60, 2 * 8
		die := make(chan struct{})
		g := NewGraph()
		g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(n)})
		workNodes := []int(nil)
		if tcp {
			workNodes = []int{1, 2}
		}
		g.AddFilter(FilterSpec{Name: "work", Copies: 2, Nodes: workNodes, New: func(copy int) Filter {
			return Func(func(ctx Context) error {
				for {
					m, ok := ctx.Recv()
					if !ok {
						return nil
					}
					if copy == 1 {
						<-die
						panic(fmt.Sprintf("injected crash holding buffer %d", m.Payload))
					}
					if err := ctx.Send("out", m.Payload); err != nil {
						return err
					}
				}
			})
		}})
		sink, got := collect()
		g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: sink})
		g.Connect(ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: RoundRobin})
		g.Connect(ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
		rt, done := start(t, context.Background(), g, &Options{QueueBytes: budget, Failover: true}, tcp)
		// Copy 1 holds its first buffer; round-robin keeps feeding it until its
		// queue is at the budget and the source blocks on it.
		until(t, "the doomed copy's queue to fill", func() bool { return queuedBytesMax(rt.copies["work"][1:]) == budget })
		if !tcp {
			until(t, "the source to block", func() bool { return rt.copies["src"][0].phase.Load() == phaseSend })
		}
		close(die)
		if err := finish(t, done); err != nil {
			t.Fatalf("run with failover: %v", err)
		}
		checkExactlyOnce(t, got(), n)
	})
}

package filter

import (
	"context"
	"errors"
	"testing"
	"time"

	"haralick4d/internal/metrics"
)

// endlessSource emits integers until a send fails (run aborted).
func endlessSource() func(int) Filter {
	return func(int) Filter {
		return Func(func(ctx Context) error {
			for i := 0; ; i++ {
				if err := ctx.Send("out", intPayload(i)); err != nil {
					return err
				}
			}
		})
	}
}

// spin burns CPU for roughly d without sleeping, so the time is charged as
// compute rather than as scheduler wait.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		x := 0.0
		for i := 0; i < 1000; i++ {
			x += float64(i)
		}
		_ = x
	}
}

func TestLocalRunReportAccounting(t *testing.T) {
	// Source saturates two spinning sinks through a shallow queue, so every
	// copy lives essentially the whole run: the source is stalled on
	// backpressure while the sinks compute. Per copy, busy + blocked-recv +
	// stalled-send must then account for the elapsed wall time.
	const n = 120
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: source(n)})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 2, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
				spin(time.Millisecond)
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: DemandDriven})
	stats, err := RunLocal(g, &Options{QueueBytes: 2 * 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := stats
	if rep == nil {
		t.Fatal("no report with metrics enabled")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "local" {
		t.Errorf("Engine = %q", rep.Engine)
	}
	if rep.ElapsedNS <= 0 {
		t.Fatalf("ElapsedNS = %d", rep.ElapsedNS)
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
	if ratio := float64(accounted) / float64(wall); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("busy+blocked+stalled = %d over %d copies, %.1f%% of wall x copies %d (want within 10%%)",
			accounted, copies, 100*ratio, wall)
	}
	sink := rep.Filter("sink")
	if sink == nil || sink.MsgsIn != n {
		t.Fatalf("sink report: %+v", sink)
	}
	if sink.BusyNS < int64(n)*int64(time.Millisecond)/2 {
		t.Errorf("sink BusyNS = %d, want >= half the spin time", sink.BusyNS)
	}
	if len(rep.Streams) != 1 {
		t.Fatalf("Streams = %+v", rep.Streams)
	}
	s := rep.Streams[0]
	if s.Buffers != n || s.Bytes != n*8 || s.Policy != DemandDriven.String() {
		t.Errorf("stream report: %+v", s)
	}
	if s.SendWaitNS <= 0 {
		t.Error("no send wait recorded despite backpressure")
	}
	if rep.Summary.Bottleneck != "sink" {
		t.Errorf("bottleneck = %q, want sink", rep.Summary.Bottleneck)
	}
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

func TestLocalContextCancel(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: endlessSource()})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 2, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var stats *metrics.RunReport
	var err error
	go func() {
		stats, err = RunLocalContext(ctx, g, &Options{QueueBytes: 4 * 8})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats == nil {
		t.Fatal("no stats returned on cancellation")
	}
}

func TestLocalPreCancelled(t *testing.T) {
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: endlessSource()})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 1, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunLocalContext(ctx, g, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTCPContextCancel(t *testing.T) {
	// Cross-node endless producer: on cancellation the receiver must keep
	// draining its socket (a sender mid-encode cannot observe the abort) and
	// the producer's next send must fail, or shutdown deadlocks.
	g := NewGraph()
	g.AddFilter(FilterSpec{Name: "src", Copies: 1, New: endlessSource(), Nodes: []int{0}})
	g.AddFilter(FilterSpec{Name: "sink", Copies: 2, New: func(int) Filter {
		return Func(func(ctx Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}, Nodes: []int{1, 1}})
	g.Connect(ConnSpec{From: "src", FromPort: "out", To: "sink", ToPort: "in", Policy: RoundRobin})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var err error
	go func() {
		_, err = RunTCPContext(ctx, g, &Options{QueueBytes: 4 * 8})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("TCP run did not stop after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTCPRunReportNetwork(t *testing.T) {
	stats, got := runPipe(t, 200, 4, RoundRobin, RunTCP)
	checkAllReceived(t, got, 200)
	rep := stats
	if rep == nil {
		t.Fatal("no report from TCP run")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Engine != "tcp" {
		t.Errorf("Engine = %q", rep.Engine)
	}
	if len(rep.Network) == 0 {
		t.Fatal("no network table despite cross-node traffic")
	}
	var msgsOut, wireOut, msgsIn, wireIn int64
	for _, c := range rep.Network {
		if c.FromNode == c.ToNode {
			t.Errorf("self link %d -> %d in network table", c.FromNode, c.ToNode)
		}
		msgsOut += c.MsgsOut
		wireOut += c.WireBytesOut
		msgsIn += c.MsgsIn
		wireIn += c.WireBytesIn
	}
	// runPipe spreads 4 sink copies over nodes 0 and 1; the 100 buffers to
	// node-1 copies cross the wire, plus EOS envelopes.
	if msgsOut < 100 || msgsIn < 100 {
		t.Errorf("network msgs out=%d in=%d, want >= 100 each", msgsOut, msgsIn)
	}
	if msgsOut != msgsIn {
		t.Errorf("envelopes out %d != in %d", msgsOut, msgsIn)
	}
	if wireOut == 0 || wireOut != wireIn {
		t.Errorf("wire bytes out=%d in=%d, want equal and nonzero", wireOut, wireIn)
	}
}

func TestFinalizeAggregates(t *testing.T) {
	rep := &metrics.RunReport{
		Engine:    "local",
		ElapsedNS: 1000,
		Filters: []metrics.FilterReport{{
			Name: "f",
			Copies: []metrics.CopyReport{
				{BusyNS: 600, MsgsIn: 2, Spans: map[string]metrics.SpanStat{"compute": {Count: 1, TotalNS: 500, MaxNS: 500}}},
				{BusyNS: 400, MsgsIn: 3, Spans: map[string]metrics.SpanStat{"compute": {Count: 2, TotalNS: 300, MaxNS: 200}}},
			},
		}},
	}
	rep.Finalize()
	f := rep.Filter("f")
	if f.BusyNS != 1000 || f.MsgsIn != 5 {
		t.Errorf("aggregates: %+v", f)
	}
	sp := rep.Span("f", "compute")
	if sp.Count != 3 || sp.TotalNS != 800 || sp.MaxNS != 500 {
		t.Errorf("span aggregate: %+v", sp)
	}
	if rep.Summary.Bottleneck != "f" {
		t.Errorf("bottleneck: %q", rep.Summary.Bottleneck)
	}
}

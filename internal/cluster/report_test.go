package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
)

// reportGraph is src → work (two copies, round-robin) → sink, with the work
// copies recording a compute span per buffer.
func reportGraph() *filter.Graph {
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: srcFilter(24, 64, 0), Nodes: []int{0}})
	g.AddFilter(filter.FilterSpec{Name: "work", Copies: 2, Nodes: []int{1, 2}, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				m, ok := ctx.Recv()
				if !ok {
					return nil
				}
				sp := ctx.Metrics().StartCompute()
				burn(200 * time.Microsecond)
				sp.End()
				if err := ctx.Send("out", m.Payload); err != nil {
					return err
				}
			}
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFilter(make([]int, 1), 0, nil), Nodes: []int{0}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: "out", To: "work", ToPort: "in", Policy: filter.RoundRobin})
	g.Connect(filter.ConnSpec{From: "work", FromPort: "out", To: "sink", ToPort: "in", Policy: filter.RoundRobin})
	return g
}

// TestEnginesShareOneReport: the local engine and the simulated cluster are
// one runtime on two clocks, so on the same graph both reports validate and
// agree on the filters, the copy counts and every copy's message and payload
// byte counts, and each stream's two ends count the same bytes — with
// metrics on and off. With metrics on, the local report's copy rows are
// exactly what the mid-run probe reads once the last copy has finished.
func TestEnginesShareOneReport(t *testing.T) {
	for _, disable := range []bool{false, true} {
		var mu sync.Mutex
		var probed *metrics.RunReport
		local, err := filter.RunLocal(reportGraph(), &filter.Options{
			DisableMetrics: disable,
			Monitor: func(stop <-chan struct{}, p filter.Probe) {
				<-stop
				mu.Lock()
				probed = p.Report()
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := run(reportGraph(), Uniform(3, 1, LANLatency, FastEthernetMBps), &filter.Options{DisableMetrics: disable})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range []*metrics.RunReport{local, sim} {
			if err := rep.Validate(); err != nil {
				t.Fatalf("%s engine (metrics off: %t): %v", rep.Engine, disable, err)
			}
			if disable && len(rep.Streams) != 0 {
				t.Errorf("%s engine: %d stream rows with metrics off", rep.Engine, len(rep.Streams))
			}
		}
		if len(local.Filters) != len(sim.Filters) {
			t.Fatalf("local has %d filters, sim %d", len(local.Filters), len(sim.Filters))
		}
		for i, lf := range local.Filters {
			sf := sim.Filters[i]
			if lf.Name != sf.Name || len(lf.Copies) != len(sf.Copies) {
				t.Fatalf("filter %d: local %s×%d, sim %s×%d", i, lf.Name, len(lf.Copies), sf.Name, len(sf.Copies))
			}
			for c := range lf.Copies {
				l, s := lf.Copies[c], sf.Copies[c]
				if l.MsgsIn != s.MsgsIn || l.MsgsOut != s.MsgsOut {
					t.Errorf("%s copy %d: local in/out %d/%d, sim %d/%d", lf.Name, c, l.MsgsIn, l.MsgsOut, s.MsgsIn, s.MsgsOut)
				}
				if l.BytesIn != s.BytesIn || l.BytesOut != s.BytesOut {
					t.Errorf("%s copy %d: local bytes in/out %d/%d, sim %d/%d", lf.Name, c, l.BytesIn, l.BytesOut, s.BytesIn, s.BytesOut)
				}
				if disable && (l.Spans != nil || s.Spans != nil) {
					t.Errorf("%s copy %d: spans recorded with metrics off", lf.Name, c)
				}
			}
		}
		// Every stream here is its producer's only output and its consumer's
		// only input, so the two ends count the same payload bytes.
		for _, rep := range []*metrics.RunReport{local, sim} {
			for _, c := range reportGraph().Conns {
				if out, in := rep.Filter(c.From).BytesOut, rep.Filter(c.To).BytesIn; out != in {
					t.Errorf("%s engine: %s sent %d bytes, %s received %d", rep.Engine, c.From, out, c.To, in)
				}
			}
		}
		if want := int64(12); local.Filter("work").Copies[1].MsgsIn != want {
			t.Errorf("work copy 1 took %d buffers, want %d", local.Filter("work").Copies[1].MsgsIn, want)
		}
		mu.Lock()
		if disable {
			if probed != nil {
				t.Error("Monitor ran with metrics off")
			}
		} else {
			if probed == nil {
				t.Fatal("Monitor never probed")
			}
			for i := range local.Filters {
				if got, want := probed.Filters[i].Copies, local.Filters[i].Copies; !reflect.DeepEqual(got, want) {
					t.Errorf("%s: probe after the last copy %+v, final report %+v", local.Filters[i].Name, got, want)
				}
			}
		}
		mu.Unlock()
	}
}

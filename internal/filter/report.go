package filter

import (
	"time"

	"haralick4d/internal/metrics"
)

// BuildReport is the one report builder every engine calls, mid-run for a
// Probe and once at the end: per copy, the engine's ledger and what the
// filter recorded; per stream, its traffic counters; then the per-filter
// aggregates and the critical path. ledger returns the named filter's copy
// ledger; stream returns a connection's counters. The caller adds what only
// its engine knows (failover redeliveries, queue bytes, the network table);
// Finalize leaves those be.
func BuildReport(engine string, elapsed time.Duration, g *Graph,
	ledger func(filter string, copy int) *metrics.Ledger, stream func(ConnSpec) *metrics.Stream) *metrics.RunReport {
	rep := &metrics.RunReport{Engine: engine, ElapsedNS: int64(elapsed)}
	for _, fs := range g.Filters {
		fr := metrics.FilterReport{Name: fs.Name}
		for i := 0; i < fs.Copies; i++ {
			fr.Copies = append(fr.Copies, ledger(fs.Name, i).Row(i, fs.Nodes[i]))
		}
		rep.Filters = append(rep.Filters, fr)
	}
	for _, c := range g.Conns {
		s := stream(c)
		sw := s.SendWait.Stat()
		rep.Streams = append(rep.Streams, metrics.StreamReport{
			From: c.From, FromPort: c.FromPort, To: c.To, ToPort: c.ToPort,
			Policy:  c.Policy.String(),
			Buffers: s.Buffers.Load(), Bytes: s.Bytes.Load(), QueueMax: s.QueueMax.Load(),
			SendWaits: sw.Count, SendWaitNS: sw.TotalNS, BufferBytesMax: s.BufferMax.Load(),
		})
	}
	rep.Finalize()
	return rep
}

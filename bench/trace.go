package main

import (
	"sort"
	"time"

	"haralick4d/internal/metrics"
)

// span is one interval the harness observed from outside the program. Spans
// of one analysis job share Job; Parent is the ID of the span that caused
// this one, 0 for a root. Times are nanoseconds since the harness started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     string `json:"job"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer hands out span identifiers against one epoch. Reps run one after
// another, so it needs no lock. Spans are kept in memory by whoever records
// them and written once, when the run ends.
type tracer struct {
	epoch time.Time
	next  int
}

func (t *tracer) add(into *[]span, parent int, job, name string, start, end time.Time) int {
	t.next++
	*into = append(*into, span{
		ID: t.next, Parent: parent, Job: job, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return t.next
}

// traceFile is the content of out/trace-<workload>.json: the harness spans of
// the traced rep and, per job identifier, the program's own run report.
type traceFile struct {
	Workload string                        `json:"workload"`
	Spans    []span                        `json:"spans"`
	Reports  map[string]*metrics.RunReport `json:"reports"`
}

// textureFilters are the filters that do the texture computation, whichever
// implementation (combined HMP, or the HCC-HPC split) the job ran.
var textureFilters = map[string]bool{"HMP": true, "HCC": true, "HPC": true}

// reportMetrics turns the run reports of one traced rep (one per job) into
// per-layer numbers. A share is a span's time over elapsed x copies of the
// filters it runs in, summed over the reports, so concurrent spans of
// read-ahead workers can exceed 1.
func reportMetrics(reports map[string]*metrics.RunReport) map[string]float64 {
	var (
		all, rfr, iic, tex, out           float64 // elapsed x copies
		read, readWait, assemble, compute float64
		write, busy, recvWait, sendWait   float64
		poolHits, poolTries               float64
		wireBytes, reads, readBytes       float64
		imbalance                         []float64
	)
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		elapsed := float64(rep.ElapsedNS)
		for _, f := range rep.Filters {
			share := elapsed * float64(len(f.Copies))
			all += share
			busy += float64(f.BusyNS)
			recvWait += float64(f.BlockedRecvNS)
			sendWait += float64(f.StalledSendNS)
			poolHits += float64(f.PoolHits)
			poolTries += float64(f.PoolHits + f.PoolMisses)
			switch {
			case f.Name == "RFR":
				rfr += share
				read += float64(f.Spans["read"].TotalNS)
				readWait += float64(f.Spans["read-wait"].TotalNS)
			case f.Name == "IIC":
				iic += share
				assemble += float64(f.Spans["assemble"].TotalNS)
			case f.Name == "USO":
				out += share
				write += float64(f.Spans["write"].TotalNS)
			case textureFilters[f.Name]:
				tex += share
				compute += float64(f.Spans["compute"].TotalNS)
				var maxBusy, sumBusy float64
				for _, c := range f.Copies {
					maxBusy = max(maxBusy, float64(c.BusyNS))
					sumBusy += float64(c.BusyNS)
				}
				if sumBusy > 0 {
					imbalance = append(imbalance, maxBusy*float64(len(f.Copies))/sumBusy)
				}
			}
		}
		for _, c := range rep.Network {
			wireBytes += float64(c.WireBytesOut)
		}
		for _, b := range rep.Backends {
			reads += float64(b.Reads)
			readBytes += float64(b.ReadBytes)
		}
	}
	return map[string]float64{
		"filters.rfr_read_share":        ratio(read, rfr),
		"filters.rfr_read_wait_share":   ratio(readWait, rfr),
		"filters.iic_assemble_share":    ratio(assemble, iic),
		"filters.texture_compute_share": ratio(compute, tex),
		"filters.out_write_share":       ratio(write, out),
		"filters.pool_hit_ratio":        ratio(poolHits, poolTries),
		"filter.send_wait_share":        ratio(sendWait, all),
		"filter.recv_wait_share":        ratio(recvWait, all),
		"filter.wire_mb":                wireBytes / 1e6,
		"filter.copy_imbalance":         ratio(sum(imbalance), float64(len(imbalance))),
		"pipeline.accounted_share":      ratio(busy+recvWait+sendWait, all),
		"dataset.backend_reads":         reads,
		"dataset.backend_read_mb":       readBytes / 1e6,
	}
}

// ratio is a/b, and 0 when there is nothing to divide by (a layer the
// workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// minOf, median and iqr summarize the samples of one run. iqr uses the same
// exclusive quartiles as Python's statistics.quantiles(v, n=4).
func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		m = min(m, x)
	}
	return m
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	return quantile(v, 0.75) - quantile(v, 0.25)
}

func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func seconds(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x.Seconds()
	}
	return out
}

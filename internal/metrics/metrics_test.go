package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTimerAndSpan(t *testing.T) {
	var tm Timer
	tm.Add(3 * time.Millisecond)
	tm.Add(5 * time.Millisecond)
	st := tm.Stat()
	if st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}
	if st.TotalNS != int64(8*time.Millisecond) {
		t.Fatalf("total = %d", st.TotalNS)
	}
	if st.MaxNS != int64(5*time.Millisecond) {
		t.Fatalf("max = %d", st.MaxNS)
	}
	sp := tm.Start()
	sp.End()
	if tm.Stat().Count != 3 {
		t.Fatalf("span did not record")
	}
	// Zero span must be a no-op.
	Span{}.End()
}

func TestMaxGauge(t *testing.T) {
	var g MaxGauge
	g.Observe(4)
	g.Observe(2)
	g.Observe(9)
	if g.Load() != 9 {
		t.Fatalf("gauge = %d, want 9", g.Load())
	}
}

func TestCopySpansSnapshot(t *testing.T) {
	c := &Copy{}
	c.StartCompute().End()
	c.Pool(true)
	c.Pool(false)
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %v, want only compute", spans)
	}
	if spans[SpanCompute].Count != 1 {
		t.Fatalf("compute span missing: %v", spans)
	}
	if c.PoolHit.Load() != 1 || c.PoolMiss.Load() != 1 {
		t.Fatalf("pool counters hit=%d miss=%d", c.PoolHit.Load(), c.PoolMiss.Load())
	}
}

func testReport() *RunReport {
	r := &RunReport{
		Engine:    "local",
		ElapsedNS: int64(10 * time.Millisecond),
		Filters: []FilterReport{
			{Name: "SRC", Copies: []CopyReport{
				{Copy: 0, BusyNS: int64(2 * time.Millisecond), MsgsOut: 4, BytesOut: 100,
					Spans: map[string]SpanStat{SpanRead: {Count: 4, TotalNS: 1e6, MaxNS: 5e5}}},
			}},
			{Name: "HMP", Copies: []CopyReport{
				{Copy: 0, BusyNS: int64(8 * time.Millisecond), MsgsIn: 2, PoolHits: 3, PoolMisses: 1},
				{Copy: 1, BusyNS: int64(6 * time.Millisecond), MsgsIn: 2, PoolHits: 2},
			}},
		},
		Streams: []StreamReport{{From: "SRC", FromPort: "out", To: "HMP", ToPort: "in",
			Policy: "demand-driven", Buffers: 4, Bytes: 100, QueueMax: 2}},
	}
	r.Finalize()
	return r
}

func TestReportFinalize(t *testing.T) {
	r := testReport()
	hmp := r.Filter("HMP")
	if hmp == nil {
		t.Fatal("HMP missing")
	}
	if hmp.BusyNS != int64(14*time.Millisecond) {
		t.Fatalf("HMP busy = %d", hmp.BusyNS)
	}
	if hmp.PoolHits != 5 || hmp.PoolMisses != 1 {
		t.Fatalf("HMP pool hit=%d miss=%d", hmp.PoolHits, hmp.PoolMisses)
	}
	if r.Summary.Bottleneck != "HMP" {
		t.Fatalf("bottleneck = %q, want HMP", r.Summary.Bottleneck)
	}
	// HMP mean busy = 7ms of 10ms elapsed.
	if got := r.Summary.Entries[0].BusyShare; got < 0.69 || got > 0.71 {
		t.Fatalf("HMP busy share = %g, want 0.7", got)
	}
	if got := r.Span("SRC", SpanRead).Count; got != 4 {
		t.Fatalf("SRC read span count = %d", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestReportValidateRejectsEmpty(t *testing.T) {
	if err := (&RunReport{}).Validate(); err == nil {
		t.Fatal("empty report validated")
	}
	r := &RunReport{Engine: "local", ElapsedNS: 1, Filters: []FilterReport{{Name: "X"}}}
	if err := r.Validate(); err == nil {
		t.Fatal("zero-busy report validated")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := testReport()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Engine != "local" || len(back.Filters) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Filter("HMP").BusyNS != r.Filter("HMP").BusyNS {
		t.Fatal("busy time lost in round trip")
	}
	if back.Summary.Bottleneck != "HMP" {
		t.Fatal("summary lost in round trip")
	}
}

func TestReportString(t *testing.T) {
	s := testReport().String()
	for _, want := range []string{"HMP", "SRC", "critical path", "demand-driven", "pool hit=5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestReadAheadDepthInReport: a reader copy's final, peak and limiting depth
// travel from the copy's metric set into its report row and the printed
// table, and Validate holds them to depth <= peak <= limit.
func TestReadAheadDepthInReport(t *testing.T) {
	c := &Copy{}
	c.StartRead().End()
	c.ReadAhead(12, 16, 16)
	r := testReport()
	c.Fill(&r.Filters[0].Copies[0])
	row := r.Filters[0].Copies[0]
	if row.ReadAheadDepth != 12 || row.ReadAheadPeak != 16 || row.ReadAheadLimit != 16 || row.Spans[SpanRead].Count != 1 {
		t.Fatalf("Fill left depth %d peak %d limit %d spans %v", row.ReadAheadDepth, row.ReadAheadPeak, row.ReadAheadLimit, row.Spans)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := r.String(); !strings.Contains(s, "read-ahead copy 0: depth=12 peak=16 limit=16") {
		t.Fatalf("String() does not print the read-ahead depth:\n%s", s)
	}
	data, err := r.JSON()
	if err != nil || !strings.Contains(string(data), `"readahead_peak": 16`) {
		t.Fatalf("JSON lacks readahead_peak (err %v)", err)
	}
	for _, bad := range [][3]int64{{17, 16, 16}, {4, 17, 16}, {-1, 4, 4}} {
		row := &r.Filters[0].Copies[0]
		row.ReadAheadDepth, row.ReadAheadPeak, row.ReadAheadLimit = bad[0], bad[1], bad[2]
		if err := r.Validate(); err == nil {
			t.Errorf("depth %d peak %d limit %d validated", bad[0], bad[1], bad[2])
		}
	}
}

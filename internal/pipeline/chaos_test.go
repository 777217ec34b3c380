package pipeline

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/filter"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
)

// TestChaosCombinedTCP is the issue's acceptance chaos run: corrupt slices,
// a texture copy that crashes mid-stream, and TCP links that break
// repeatedly — under SkipDegraded + failover + retry the pipeline must
// still complete, with every surviving output voxel bit-identical to the
// clean oracle and the damage fully accounted for.
func TestChaosCombinedTCP(t *testing.T) {
	cleanDir := t.TempDir()
	if _, err := dataset.Write(cleanDir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 3); err != nil {
		t.Fatal(err)
	}
	clean, err := dataset.Open(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sequential(clean, testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}

	st, wantSlices := corruptStore(t)
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.ReadAhead = 2
	cfg.FaultPolicy = fault.SkipDegraded
	g, res, _, err := Build(st, cfg, &Layout{HMPNodes: []int{4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	// HMP copy 1 panics while holding its 4th buffer; failover must requeue
	// it onto the survivors.
	hmp, ok := g.Filter("HMP")
	if !ok {
		t.Fatal("HMP filter missing")
	}
	hmp.New = fault.CrashAfter(hmp.New, 1, 4)
	// Every TCP link breaks after 25 writes — and each reconnect gets a
	// fresh flaky conn that breaks again.
	wrap := func(c net.Conn, from, to int) net.Conn {
		return &fault.FlakyConn{Conn: c, FailAt: 25}
	}
	retry := &resilience.Policy{Retry: resilience.Retry{
		Attempts: 8,
		Base:     time.Millisecond,
		Max:      20 * time.Millisecond,
	}}
	rs, err := Run(g, EngineTCP, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 8), Failover: true, Resilience: retry, WrapConn: wrap}})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatalf("degraded accounting: %v", err)
	}
	slices, rois, voxels := res.Degraded()
	if len(slices) != len(wantSlices) || voxels == 0 {
		t.Fatalf("degraded slices = %v (voxels %d), want %v", slices, voxels, wantSlices)
	}
	for i, s := range wantSlices {
		if slices[i] != s {
			t.Fatalf("degraded slices = %v, want %v", slices, wantSlices)
		}
	}
	inROI := func(p [4]int) bool {
		for _, b := range rois {
			if b.Contains(p) {
				return true
			}
		}
		return false
	}
	outDims := ref[cfg.Analysis.Features[0]].Dims
	for _, f := range cfg.Analysis.Features {
		got, want := res.Grid(f), ref[f]
		if got == nil {
			t.Fatalf("%v: grid missing", f)
		}
		for tt := 0; tt < outDims[3]; tt++ {
			for z := 0; z < outDims[2]; z++ {
				for y := 0; y < outDims[1]; y++ {
					for x := 0; x < outDims[0]; x++ {
						if inROI([4]int{x, y, z, tt}) {
							continue
						}
						if g, w := got.At(x, y, z, tt), want.At(x, y, z, tt); g != w {
							t.Fatalf("%v: clean voxel (%d,%d,%d,%d) = %v, want %v", f, x, y, z, tt, g, w)
						}
					}
				}
			}
		}
	}
	// The report must show all three faults being survived: the copy crash
	// with redelivery, and the link breaks with retries and redials.
	if rs == nil {
		t.Fatal("run report missing")
	}
	for _, fr := range rs.Filters {
		if fr.Name != "HMP" {
			continue
		}
		if fr.CopyFailures != 1 || fr.Redelivered < 1 {
			t.Errorf("HMP CopyFailures = %d, Redelivered = %d, want 1 and >= 1", fr.CopyFailures, fr.Redelivered)
		}
	}
	var retries, redials int64
	for _, c := range rs.Network {
		retries += c.Retries
		redials += c.Redials
	}
	if retries == 0 || redials == 0 {
		t.Errorf("retries=%d redials=%d, want both > 0", retries, redials)
	}
}

// TestChaosHTTPFailover combines the remote-read fault surface with the
// compute fault surface in one run: a corrupt dataset (flip, truncation,
// deletion) is read over an HTTP backend whose transport kills the first
// request for every URL, while an HMP copy crashes mid-stream. Retries must
// absorb the transport faults, SkipDegraded must fence exactly the damaged
// ROIs, failover must redeliver the crashed copy's buffers — and every voxel
// outside the degraded ROIs must stay bit-identical to the clean local
// oracle. Runs clean under -race with a fixed seed (FirstPerURL keeps the
// fault schedule independent of goroutine interleaving, so the retry budget
// can never be exhausted by alignment). The schedule is 52 killed first
// requests — header, 3 indexes, and the first ranged GET of each of the 48
// slices — each followed by the retry that answers (for a deleted slice,
// with the 404 that degrades it).
func TestChaosHTTPFailover(t *testing.T) {
	cleanDir := t.TempDir()
	if _, err := dataset.Write(cleanDir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 3); err != nil {
		t.Fatal(err)
	}
	clean, err := dataset.Open(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sequential(clean, testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}

	dir, damaged := corruptDataset(t)
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()
	flaky := &fault.FlakyTransport{FirstPerURL: true}
	st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{
		HTTPClient: &http.Client{Transport: flaky},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantSlices := damagedIDs(t, st, damaged)

	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.ReadAhead = 2
	cfg.FaultPolicy = fault.SkipDegraded
	g, res, _, err := Build(st, cfg, &Layout{HMPNodes: []int{4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	// HMP copy 1 panics while holding its 4th buffer; failover must requeue
	// it onto the survivors.
	hmp, ok := g.Filter("HMP")
	if !ok {
		t.Fatal("HMP filter missing")
	}
	hmp.New = fault.CrashAfter(hmp.New, 1, 4)

	rs, err := Run(g, EngineLocal, &RunOptions{Options: filter.Options{QueueBytes: queueBytes(cfg, 8), Failover: true}})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatalf("degraded accounting: %v", err)
	}
	slices, rois, voxels := res.Degraded()
	if len(slices) != len(wantSlices) || voxels == 0 {
		t.Fatalf("degraded slices = %v (voxels %d), want %v", slices, voxels, wantSlices)
	}
	for i, s := range wantSlices {
		if slices[i] != s {
			t.Fatalf("degraded slices = %v, want %v", slices, wantSlices)
		}
	}
	inROI := func(p [4]int) bool {
		for _, b := range rois {
			if b.Contains(p) {
				return true
			}
		}
		return false
	}
	outDims := ref[cfg.Analysis.Features[0]].Dims
	for _, f := range cfg.Analysis.Features {
		got, want := res.Grid(f), ref[f]
		if got == nil {
			t.Fatalf("%v: grid missing", f)
		}
		for tt := 0; tt < outDims[3]; tt++ {
			for z := 0; z < outDims[2]; z++ {
				for y := 0; y < outDims[1]; y++ {
					for x := 0; x < outDims[0]; x++ {
						if inROI([4]int{x, y, z, tt}) {
							continue
						}
						if g, w := got.At(x, y, z, tt), want.At(x, y, z, tt); g != w {
							t.Fatalf("%v: clean voxel (%d,%d,%d,%d) = %v, want %v", f, x, y, z, tt, g, w)
						}
					}
				}
			}
		}
	}
	// All three fault surfaces must actually have fired.
	if flaky.Failures() == 0 {
		t.Errorf("injector killed no requests over %d calls", flaky.Calls())
	}
	if rs == nil {
		t.Fatal("run report missing")
	}
	for _, fr := range rs.Filters {
		if fr.Name != "HMP" {
			continue
		}
		if fr.CopyFailures != 1 || fr.Redelivered < 1 {
			t.Errorf("HMP CopyFailures = %d, Redelivered = %d, want 1 and >= 1", fr.CopyFailures, fr.Redelivered)
		}
	}
	attachBackendStats(rs, st)
	if len(rs.Backends) != 1 {
		t.Fatalf("report has %d backend entries, want 1", len(rs.Backends))
	}
	be := rs.Backends[0]
	if be.Scheme != "http" {
		t.Errorf("backend scheme = %q, want http", be.Scheme)
	}
}

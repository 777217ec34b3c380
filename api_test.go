package haralick4d

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	// The zero value selects the documented defaults and must validate.
	var o Options
	if err := o.Validate(); err != nil {
		t.Fatalf("zero-value options rejected: %v", err)
	}
	if o.ROI != [4]int{} || o.GrayLevels != 0 || o.NDim != 0 || o.Distance != 0 || o.Features != nil {
		t.Error("Validate modified the options")
	}
	// A nil receiver behaves like the zero value (Analyze accepts nil opts).
	if err := (*Options)(nil).Validate(); err != nil {
		t.Fatalf("nil options rejected: %v", err)
	}
	// Validate must return the same error the analysis entry points do.
	bad := &Options{Spec: Spec{GrayLevels: 1}}
	verr := bad.Validate()
	if verr == nil {
		t.Fatal("GrayLevels 1 accepted")
	}
	_, aerr := Analyze(NewVolume([4]int{8, 8, 2, 2}), bad)
	if aerr == nil || aerr.Error() != verr.Error() {
		t.Errorf("Analyze error %q != Validate error %q", aerr, verr)
	}
	if err := (&Options{Spec: Spec{NDim: 5}}).Validate(); err == nil {
		t.Error("NDim 5 accepted")
	}
	if err := (&Options{Spec: Spec{Distance: -1}}).Validate(); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestAnalyzeReport(t *testing.T) {
	v := phantom(t)
	// One texture copy is the same pipeline with one HMP copy: the readers'
	// and the sink's spans are real, and the in-memory dataset shows up in
	// the backends table.
	seq, err := Analyze(v, smallOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Report == nil {
		t.Fatal("one-copy run has no report")
	}
	if err := seq.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	if seq.Report.Engine != "local" {
		t.Errorf("one-copy report engine = %q, want local", seq.Report.Engine)
	}
	for _, name := range []string{"RFR", "IIC", "HMP", "OUT"} {
		if seq.Report.Filter(name) == nil {
			t.Errorf("one-copy report lacks filter %s", name)
		}
	}
	if hmp := seq.Report.Filter("HMP"); hmp != nil && len(hmp.Copies) != 1 {
		t.Errorf("one-copy report: %d HMP copies, want 1", len(hmp.Copies))
	}
	if b := seq.Report.Backends; len(b) != 1 || b[0].Scheme != "mem" {
		t.Errorf("one-copy report backends = %+v, want one mem entry", b)
	}
	// Parallel path: the pipeline's filters with their spans.
	par, err := Analyze(v, smallOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if par.Report == nil {
		t.Fatal("parallel run has no report")
	}
	if err := par.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	if par.Report.Engine != "local" {
		t.Errorf("parallel report engine = %q", par.Report.Engine)
	}
	hmp := par.Report.Filter("HMP")
	if hmp == nil || len(hmp.Copies) != 3 {
		t.Fatalf("HMP filter report: %+v", hmp)
	}
	// The report is JSON-serializable via encoding/json directly.
	data, err := json.Marshal(par.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"HMP"`) {
		t.Error("serialized report lacks the HMP filter")
	}
}

func TestAnalyzeDatasetReport(t *testing.T) {
	v := phantom(t)
	dir := t.TempDir()
	if err := WriteDataset(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeDataset(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("dataset run has no report")
	}
	if err := res.Report.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RFR", "IIC", "HMP", "OUT"} {
		if res.Report.Filter(name) == nil {
			t.Errorf("filter %s missing from report", name)
		}
	}
	// OutputJPEG writes the stitched slice series instead of returning grids.
	opts := smallOpts(2)
	opts.Output, opts.OutDir = OutputJPEG, filepath.Join(dir, "maps")
	if res, err = AnalyzeDataset(dir, opts); err != nil || len(res.Grids) != 0 || res.Report.Filter("JIW") == nil {
		t.Fatalf("jpeg run: %v, %d grids", err, len(res.Grids))
	}
	if jpegs, _ := filepath.Glob(filepath.Join(dir, "maps", "*.jpg")); len(jpegs) == 0 {
		t.Error("jpeg run wrote no JPEG")
	}
}

func TestAnalyzeContextCancel(t *testing.T) {
	v := phantom(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, v, smallOpts(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeContext err = %v, want context.Canceled", err)
	}
	dir := t.TempDir()
	if err := WriteDataset(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeDatasetContext(ctx, dir, smallOpts(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeDatasetContext err = %v, want context.Canceled", err)
	}
}

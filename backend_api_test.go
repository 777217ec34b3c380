package haralick4d

import (
	"strings"
	"testing"

	"haralick4d/internal/dataset"
)

// TestAnalyzeDatasetMemBackend runs the façade over a registered mem://
// dataset and checks the feature maps against the local-directory path and
// the backend section of the run report.
func TestAnalyzeDatasetMemBackend(t *testing.T) {
	v := phantom(t)
	dir := t.TempDir()
	if err := WriteDataset(dir, v, 2); err != nil {
		t.Fatal(err)
	}
	ref, err := AnalyzeDataset(dir, smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}

	mb, _, err := dataset.WriteMemDataset(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	dataset.RegisterMem("api-mem-test", mb)
	defer dataset.UnregisterMem("api-mem-test")

	res, err := AnalyzeDataset("mem://api-mem-test", smallOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range PaperFeatures() {
		a, b := ref.Grids[f], res.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%v voxel %d differs between disk and mem backends", f, i)
			}
		}
	}
	if res.Report == nil {
		t.Fatal("no report")
	}
	if len(res.Report.Backends) != 1 {
		t.Fatalf("report has %d backend entries, want 1", len(res.Report.Backends))
	}
	be := res.Report.Backends[0]
	if be.Scheme != "mem" || be.URL != "mem://api-mem-test" {
		t.Errorf("backend identity = %q %q", be.Scheme, be.URL)
	}
	if be.Reads == 0 || be.ReadBytes == 0 {
		t.Errorf("backend counters empty: %+v", be)
	}
	// The report's text rendering surfaces the backend table.
	if s := res.Report.String(); !strings.Contains(s, "backends:") {
		t.Error("report text omits the backends section")
	}
}

func TestAnalyzeDatasetBadURL(t *testing.T) {
	for _, url := range []string{"", "ftp://host/x", "mem://", "mem://no-such-backend", "http://"} {
		if _, err := AnalyzeDataset(url, smallOpts(1)); err == nil {
			t.Errorf("URL %q accepted", url)
		}
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeTiny runs all four workloads end to end on 24x24x4x4 datasets, one
// timed rep each, and checks that every metric the harness names comes out
// finite and that no operation failed.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the four commands")
	}
	out := t.TempDir()
	code, err := run(options{seed: 1, seconds: 1, reps: 1, trace: traceBoth, scale: "tiny", out: out})
	if err != nil || code != 0 {
		t.Fatalf("run: exit code %d, error %v", code, err)
	}
	data, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc resultsFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("results for %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for _, res := range doc.Workloads {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, group := range []struct {
			defs   []metricDef
			values map[string]float64
		}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
			for _, d := range group.defs {
				v, ok := group.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s missing or not finite (%v)", res.Workload, d.name, v)
				}
			}
			if len(group.values) != len(group.defs) {
				t.Errorf("%s: %d metrics reported, %d named", res.Workload, len(group.values), len(group.defs))
			}
		}
		for _, d := range endToEnd {
			if res.EndToEnd[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", res.Workload, d.name, res.EndToEnd[d.name])
			}
		}
		var tf traceFile
		data, err := os.ReadFile(filepath.Join(out, "trace-"+res.Workload+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		checkSpans(t, res.Workload, tf)
	}
}

// checkSpans verifies the trace file's shape: every span but the root has a
// recorded parent, lies inside it, and every job identifier has a run report.
func checkSpans(t *testing.T, workload string, tf traceFile) {
	byID := map[int]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Job == "" || s.Name == "" {
			t.Errorf("%s: malformed span %+v", workload, s)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d names parent %d, which is not recorded", workload, s.ID, s.Parent)
		} else if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %s [%d,%d] outside its parent %s [%d,%d]", workload, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d root spans, want 1", workload, roots)
	}
	if len(tf.Reports) == 0 {
		t.Errorf("%s: trace file holds no run report", workload)
	}
	for job, rep := range tf.Reports {
		if rep == nil || rep.ElapsedNS <= 0 {
			t.Errorf("%s: job %s has no run report", workload, job)
		}
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json names exactly the
// workloads and metrics the harness produces, with the same units.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := readBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	type entry struct{ Name, Unit string }
	compare := func(kind string, defs []metricDef, listed []entry) {
		if len(defs) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(listed), len(defs))
		}
		want := map[string]string{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || len(d.name) > 64 || d.unit == "" {
				t.Errorf("%s: bad metric name or unit: %q %q", kind, d.name, d.unit)
			}
			want[d.name] = d.unit
		}
		for _, e := range listed {
			if unit, ok := want[e.Name]; !ok || unit != e.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q; the harness has unit %q (known: %v)", kind, e.Name, e.Unit, unit, ok)
			}
		}
	}
	var e2e, layer []entry
	for _, m := range b.EndToEnd {
		e2e = append(e2e, entry{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, entry{m.Name, m.Unit})
	}
	compare("end_to_end", endToEnd, e2e)
	compare("per_layer", perLayer, layer)
}

// usoRecord and usoFile write the USO record format by hand.
func usoRecord(feature int32, lo, hi [4]int32, values ...float64) []byte {
	var b bytes.Buffer
	for _, v := range []any{feature, lo, hi, values} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.Bytes()
}

func usoFile(records ...[]byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, usoMagic), bytes.Join(records, nil)...)
}

// TestUSOSumIsPositionKeyed checks the checksum the output comparison rests
// on: the split of values over record files does not matter, their positions
// do.
func TestUSOSumIsPositionKeyed(t *testing.T) {
	outDims := [4]int{2, 2, 1, 1}
	write := func(files ...[]byte) string {
		dir := t.TempDir()
		for i, data := range files {
			name := filepath.Join(dir, "uso_c00"+string(rune('0'+i))+"_asm.bin")
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	whole, err := sumUSODir(write(usoFile(usoRecord(0, [4]int32{0, 0, 0, 0}, [4]int32{2, 2, 1, 1}, 1, 2, 3, 4))), outDims)
	if err != nil {
		t.Fatal(err)
	}
	split, err := sumUSODir(write(
		usoFile(usoRecord(0, [4]int32{0, 1, 0, 0}, [4]int32{2, 2, 1, 1}, 3, 4)),
		usoFile(usoRecord(0, [4]int32{0, 0, 0, 0}, [4]int32{2, 1, 1, 1}, 1, 2)),
	), outDims)
	if err != nil {
		t.Fatal(err)
	}
	if whole != split || whole.rois != 4 {
		t.Errorf("same values in other files: %+v vs %+v", whole, split)
	}
	swapped, err := sumUSODir(write(usoFile(usoRecord(0, [4]int32{0, 0, 0, 0}, [4]int32{2, 2, 1, 1}, 2, 1, 3, 4))), outDims)
	if err != nil {
		t.Fatal(err)
	}
	if swapped.hash == whole.hash {
		t.Error("two values swapped between positions: same checksum")
	}
	if _, err := sumUSODir(write(usoFile(usoRecord(0, [4]int32{0, 0, 0, 0}, [4]int32{3, 2, 1, 1}, 1, 2, 3, 4, 5, 6))), outDims); err == nil {
		t.Error("record outside the output dimensions: accepted")
	}
}

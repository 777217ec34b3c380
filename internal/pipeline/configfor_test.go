package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"haralick4d/internal/filter"
	"haralick4d/internal/runspec"
)

// TestConfigForPlacement pins the one placement rule: storage nodes first,
// then IIC, the output copy and the texture copies; split co-locates HCC and
// HPC pairs.
func TestConfigForPlacement(t *testing.T) {
	cfg, layout, err := ConfigFor(&runspec.Spec{Texture: 3, Impl: runspec.Split, Output: runspec.OutputNone, OutDir: "x"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := &Layout{IICNodes: []int{4}, OutputNodes: []int{5}, HCCNodes: []int{6, 7, 8}, HPCNodes: []int{6, 7, 8}}
	if !reflect.DeepEqual(layout, want) {
		t.Fatalf("layout %+v, want %+v", layout, want)
	}
	if cfg.Output != OutputCollect || cfg.OutDir != "" || cfg.Policy != filter.DemandDriven {
		t.Fatalf("cfg %+v", cfg)
	}
	if _, _, err := ConfigFor(&runspec.Spec{Texture: -1}, 4); !errors.Is(err, runspec.ErrInvalid) {
		t.Fatalf("invalid spec: %v", err)
	}
}

// FuzzSpecJSON: any job-submit body either fails with a typed error
// (runspec.ErrInvalid) or yields a spec that validates, turns into a
// pipeline configuration on a fixed dataset shape without panicking, and
// round-trips JSON → spec → JSON → spec to an equal value.
func FuzzSpecJSON(f *testing.F) {
	for _, body := range []string{
		// CI's serve smoke and kill-and-restart bodies.
		`{"dataset": "/tmp/serve-study", "output": "uso", "out_dir": "/tmp/uso-served", "roi": [5,5,2,2], "chunk": [12,12,3,4], "gray": 16, "texture": 2}`,
		`{"dataset": "/tmp/kill-study", "output": "uso", "out_dir": "/tmp/uso-killed", "roi": [5,5,2,2], "chunk": [16,16,4,5], "gray": 16, "texture": 2, "kernel_workers": 1}`,
		// README's example and the benchmark's daemon job.
		`{"dataset": "http://localhost:8171", "output": "uso", "gray": 32, "stall_timeout": "2m"}`,
		`{"dataset": "/bench/data", "output": "uso", "texture": 2, "kernel_workers": 2}`,
		`{"dataset": "x", "features": ["asm","contrast"], "rep": "sparse", "impl": "split", "policy": "rr", "fault_policy": "skip", "serve_stale": true, "deadline_ms": 60000, "readahead": "auto", "ndim": 2, "distance": 3}`,
		`{"dataset": "x", "kernel_worker": 2}`,
		`{"roi": [1,1,1,1]}`,
		`{"texture": 99999999999}`,
		`{"deadline_ms": 9223372036854775807}`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	dims := [4]int{24, 20, 6, 8}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := runspec.DecodeJSON(bytes.NewReader(body))
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			if !errors.Is(err, runspec.ErrInvalid) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		cfg, layout, err := ConfigFor(&s, 3)
		if err != nil {
			t.Fatalf("a valid spec is refused: %v", err)
		}
		cfg.Validate(dims) // may refuse a ROI larger than the dataset; must not panic
		if len(layout.HMPNodes)+len(layout.HCCNodes) != s.Resolved().Texture {
			t.Fatalf("layout %+v for %d texture copies", layout, s.Resolved().Texture)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := runspec.DecodeJSON(bytes.NewReader(out))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip of %s: %+v, %v; want %+v", out, again, err, s)
		}
	})
}

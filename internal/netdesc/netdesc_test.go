package netdesc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
)

const sampleXML = `
<pipeline>
  <analysis roi="16x16x3x3" gray="32" ndim="4" distance="1"
            rep="sparse" features="asm,correlation"/>
  <chunk shape="64x64x8x8" iochunk="256x256" packets="4"/>
  <impl>split</impl>
  <policy>demand-driven</policy>
  <output mode="jpeg" dir="maps"/>
  <layout>
    <source nodes="0 1 2 3"/>
    <iic    nodes="4"/>
    <hcc    nodes="5 6 7"/>
    <hpc    nodes="5 6 7"/>
    <out    nodes="8"/>
  </layout>
</pipeline>`

func TestParseAndBuild(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	cfg, layout, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Analysis.ROI != [4]int{16, 16, 3, 3} || cfg.Analysis.GrayLevels != 32 {
		t.Errorf("analysis = %+v", cfg.Analysis)
	}
	if cfg.Analysis.Representation != core.SparseMatrix {
		t.Error("representation not parsed")
	}
	if len(cfg.Analysis.Features) != 2 || cfg.Analysis.Features[0] != features.ASM {
		t.Errorf("features = %v", cfg.Analysis.Features)
	}
	if cfg.ChunkShape != [4]int{64, 64, 8, 8} || cfg.IOChunk != [2]int{256, 256} || cfg.PacketsPerChunk != 4 {
		t.Errorf("chunk = %v %v %d", cfg.ChunkShape, cfg.IOChunk, cfg.PacketsPerChunk)
	}
	if cfg.Impl != pipeline.SplitImpl || cfg.Policy != filter.DemandDriven {
		t.Error("impl/policy not parsed")
	}
	if cfg.Output != pipeline.OutputJPEG || cfg.OutDir != "maps" {
		t.Error("output not parsed")
	}
	if len(layout.SourceNodes) != 4 || layout.SourceNodes[3] != 3 {
		t.Errorf("source nodes = %v", layout.SourceNodes)
	}
	if len(layout.HCCNodes) != 3 || layout.HCCNodes[2] != 7 {
		t.Errorf("hcc nodes = %v", layout.HCCNodes)
	}
	if layout.HMPNodes != nil {
		t.Error("absent hmp placement should be nil")
	}
}

func TestParseFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.xml")
	if err := os.WriteFile(path, []byte(sampleXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFile(filepath.Join(t.TempDir(), "missing.xml")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		`<pipeline><analysis roi="bogus"/></pipeline>`,
		`<pipeline><analysis rep="nope"/></pipeline>`,
		`<pipeline><analysis features="nope"/></pipeline>`,
		`<pipeline><chunk iochunk="weird"/></pipeline>`,
		`<pipeline><impl>nope</impl></pipeline>`,
		`<pipeline><policy>nope</policy></pipeline>`,
		`<pipeline><output mode="nope"/></pipeline>`,
		`<pipeline><layout><iic nodes="x"/></layout></pipeline>`,
	}
	for i, src := range cases {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			continue // malformed XML also counts as rejection
		}
		if _, _, err := d.Build(); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
	if _, err := Parse(strings.NewReader("not xml at all")); err == nil {
		t.Error("garbage XML accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	cfg, layout, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Marshal(cfg, layout)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(strings.NewReader(string(out)))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	cfg2, layout2, err := d2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Analysis.ROI != cfg.Analysis.ROI || cfg2.Impl != cfg.Impl ||
		cfg2.Policy != cfg.Policy || cfg2.Output != cfg.Output ||
		cfg2.ChunkShape != cfg.ChunkShape || cfg2.IOChunk != cfg.IOChunk {
		t.Errorf("round trip changed config:\n%+v\n%+v", cfg, cfg2)
	}
	if len(layout2.HCCNodes) != len(layout.HCCNodes) {
		t.Error("round trip changed layout")
	}
}

func TestDefaultsAreZeroValues(t *testing.T) {
	d, err := Parse(strings.NewReader(`<pipeline/>`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, layout, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Impl != pipeline.HMPImpl || cfg.Policy != filter.RoundRobin || cfg.Output != pipeline.OutputCollect {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if layout.SourceNodes != nil {
		t.Error("empty layout should stay nil")
	}
}

// FuzzNetdesc feeds arbitrary documents to the parser: every input gives
// an error or a (Config, Layout), never a panic, and a document that
// builds survives Marshal → Parse → Build with an equal config and layout.
func FuzzNetdesc(f *testing.F) {
	f.Add(sampleXML)
	f.Add(`<pipeline/>`)
	f.Add(`<pipeline><analysis roi="5x5x2x2" gray="16" features=""/><chunk iochunk="8x8"/><impl> hmp </impl><policy>rr</policy><output mode="uso" dir="a&amp;b"/><layout><source nodes="0 0"/><hmp nodes=" 1 2 "/><jiw nodes="3"/></layout></pipeline>`)
	f.Add(`<pipeline><analysis roi="0x0x0x0" rep="full-noskip"/><chunk shape="1x2x3" packets="-1"/></pipeline>`)
	f.Add("not xml at all")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		cfg, layout, err := d.Build()
		if err != nil {
			return
		}
		if cfg == nil || layout == nil {
			t.Fatal("Build returned no error and no config")
		}
		out, err := Marshal(cfg, layout)
		if err != nil {
			t.Fatalf("Marshal of a built document: %v", err)
		}
		d2, err := Parse(strings.NewReader(string(out)))
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, out)
		}
		cfg2, layout2, err := d2.Build()
		if err != nil {
			t.Fatalf("re-build: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Errorf("config changed over the round trip:\n%+v\n%+v\n%s", cfg, cfg2, out)
		}
		if !reflect.DeepEqual(layout, layout2) {
			t.Errorf("layout changed over the round trip:\n%+v\n%+v\n%s", layout, layout2, out)
		}
	})
}

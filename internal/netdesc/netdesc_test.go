package netdesc

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/runspec"
)

const sampleXML = `
<pipeline>
  <analysis roi="16x16x3x3" gray="32" ndim="4" distance="1"
            rep="sparse" features="asm,correlation"/>
  <chunk shape="64x64x8x8" iochunk="256x256"/>
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
	s := runspec.Spec{Texture: 8}
	p, err := d.Decode(&s)
	if err != nil {
		t.Fatal(err)
	}
	if s.ROI != (runspec.Shape{16, 16, 3, 3}) || s.GrayLevels != 32 || s.Texture != 8 {
		t.Errorf("spec = %+v", s)
	}
	if s.Representation != core.SparseMatrix {
		t.Error("representation not parsed")
	}
	if len(s.Features) != 2 || s.Features[0] != features.ASM {
		t.Errorf("features = %v", s.Features)
	}
	if s.ChunkShape != (runspec.Shape{64, 64, 8, 8}) || p.IOChunk != [2]int{256, 256} {
		t.Errorf("chunk = %v %v", s.ChunkShape, p.IOChunk)
	}
	if s.Impl != runspec.Split || s.Policy != runspec.DemandDriven {
		t.Error("impl/policy not parsed")
	}
	if s.Output != runspec.OutputJPEG || s.OutDir != "maps" {
		t.Error("output not parsed")
	}
	layout := p.Layout
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
		`<pipeline><analysis gray="many"/></pipeline>`,
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
		if _, err := d.Decode(&runspec.Spec{}); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
	if _, err := Parse(strings.NewReader("not xml at all")); err == nil {
		t.Error("garbage XML accepted")
	}
}

// TestPacketsRefused: a document that sets the HCC packet count, which no
// longer exists, fails with an error that names the attribute.
func TestPacketsRefused(t *testing.T) {
	_, _, err := decode(t, `<pipeline><chunk shape="64x64x8x8" packets="4"/><impl>split</impl></pipeline>`)
	if err == nil || !strings.Contains(err.Error(), "packets") {
		t.Fatalf("packets=4 gave %v, want an error naming packets", err)
	}
}

// decode parses src onto a zero spec.
func decode(t *testing.T, src string) (runspec.Spec, *Placement, error) {
	t.Helper()
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		return runspec.Spec{}, nil, err
	}
	var s runspec.Spec
	p, err := d.Decode(&s)
	return s, p, err
}

func TestMarshalRoundTrip(t *testing.T) {
	s, p, err := decode(t, sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Marshal(&s, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, p2, err := decode(t, string(out))
	if err != nil {
		t.Fatalf("re-decode failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(s, s2) || !reflect.DeepEqual(p, p2) {
		t.Errorf("round trip changed the document:\n%+v %+v\n%+v %+v", s, p, s2, p2)
	}
}

// TestDefaultsAreZeroValues: an empty document leaves the caller's spec as
// it was and places nothing; collect reads as no output.
func TestDefaultsAreZeroValues(t *testing.T) {
	d, err := Parse(strings.NewReader(`<pipeline/>`))
	if err != nil {
		t.Fatal(err)
	}
	s := runspec.Spec{Impl: runspec.Split, Policy: runspec.RoundRobin, GrayLevels: 16}
	want := s
	p, err := d.Decode(&s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, want) || !reflect.DeepEqual(*p, Placement{}) {
		t.Errorf("empty document changed the spec to %+v, placement %+v", s, p)
	}
	if s, _, err := decode(t, `<pipeline><output mode="collect"/></pipeline>`); err != nil || s.Output != runspec.OutputNone {
		t.Errorf("collect decoded as %v, %v", s.Output, err)
	}
}

// FuzzNetdesc feeds arbitrary documents to the parser: every input gives
// an error or a (Spec, Placement), never a panic, and a document that
// decodes survives Marshal → Parse → Decode with an equal spec and
// placement.
func FuzzNetdesc(f *testing.F) {
	f.Add(sampleXML)
	f.Add(`<pipeline/>`)
	f.Add(`<pipeline><analysis roi="5x5x2x2" gray="16" features=""/><chunk iochunk="8x8"/><impl> hmp </impl><policy>rr</policy><output mode="uso" dir="a&amp;b"/><layout><source nodes="0 0"/><hmp nodes=" 1 2 "/><jiw nodes="3"/></layout></pipeline>`)
	f.Add(`<pipeline><analysis roi="0x0x0x0" rep="full-noskip"/><chunk shape="1x2x3" packets="-1"/></pipeline>`)
	f.Add("not xml at all")
	f.Fuzz(func(t *testing.T, src string) {
		s, p, err := decode(t, src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("Decode returned no error and no placement")
		}
		out, err := Marshal(&s, p)
		if err != nil {
			t.Fatalf("Marshal of a decoded document: %v", err)
		}
		s2, p2, err := decode(t, string(out))
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Errorf("spec changed over the round trip:\n%+v\n%+v\n%s", s, s2, out)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("placement changed over the round trip:\n%+v\n%+v\n%s", p, p2, out)
		}
	})
}

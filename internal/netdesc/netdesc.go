// Package netdesc parses XML pipeline descriptions — the paper expresses
// its filter networks "as an XML document" (§4.3, after Hastings et al.).
// A document describes one end-to-end Haralick pipeline: the analysis
// parameters, the chunk geometry, the implementation and scheduling
// choices, the output stage and the placement of every filter's copies.
//
// A document is not a second run description: it decodes onto a run spec
// (internal/runspec), where each attribute or element it holds overrides
// the spec's field and each one it omits keeps the caller's value, and
// what no spec field carries (the placement and the read window) becomes a
// Placement, applied in a pipeline.Prepare place hook.
//
// Example:
//
//	<pipeline>
//	  <analysis roi="16x16x3x3" gray="32" ndim="4" distance="1"
//	            rep="sparse" features="asm,correlation,variance,idm"/>
//	  <chunk shape="64x64x8x8" iochunk="256x256"/>
//	  <impl>split</impl>
//	  <policy>demand-driven</policy>
//	  <output mode="jpeg" dir="maps"/>
//	  <layout>
//	    <source nodes="0 1 2 3"/>
//	    <iic    nodes="4"/>
//	    <hcc    nodes="5 6 7"/>
//	    <hpc    nodes="5 6 7"/>
//	    <out    nodes="8"/>
//	  </layout>
//	</pipeline>
package netdesc

import (
	"encoding"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"haralick4d/internal/pipeline"
	"haralick4d/internal/runspec"
)

// Document is the XML representation of one pipeline. Every value is its
// text form; empty is absent.
type Document struct {
	XMLName  xml.Name    `xml:"pipeline"`
	Analysis AnalysisXML `xml:"analysis"`
	Chunk    ChunkXML    `xml:"chunk"`
	Impl     string      `xml:"impl,omitempty"`
	Policy   string      `xml:"policy,omitempty"`
	Output   OutputXML   `xml:"output"`
	Layout   LayoutXML   `xml:"layout"`
}

// AnalysisXML holds the texture-analysis parameters.
type AnalysisXML struct {
	ROI      string `xml:"roi,attr,omitempty"`
	Gray     string `xml:"gray,attr,omitempty"`
	NDim     string `xml:"ndim,attr,omitempty"`
	Distance string `xml:"distance,attr,omitempty"`
	Rep      string `xml:"rep,attr,omitempty"`
	Features string `xml:"features,attr,omitempty"`
}

// ChunkXML holds the chunk geometry. Packets is read only to refuse it:
// HCC sends one matrix batch per grain, and no packet count replaces that.
type ChunkXML struct {
	Shape   string `xml:"shape,attr,omitempty"`
	IOChunk string `xml:"iochunk,attr,omitempty"`
	Packets string `xml:"packets,attr,omitempty"`
}

// OutputXML holds the output stage selection: a run spec's output (uso,
// jpeg, none; collect is none) and directory.
type OutputXML struct {
	Mode string `xml:"mode,attr,omitempty"`
	Dir  string `xml:"dir,attr,omitempty"`
}

// LayoutXML assigns filter copies to nodes; each element's nodes attribute
// is a space-separated node-id list whose length is the copy count.
type LayoutXML struct {
	Source NodesXML `xml:"source"`
	IIC    NodesXML `xml:"iic"`
	HMP    NodesXML `xml:"hmp"`
	HCC    NodesXML `xml:"hcc"`
	HPC    NodesXML `xml:"hpc"`
	Out    NodesXML `xml:"out"`
	JIW    NodesXML `xml:"jiw"`
}

// NodesXML is one placement list.
type NodesXML struct {
	Nodes string `xml:"nodes,attr,omitempty"`
}

// Parse reads a pipeline document.
func Parse(r io.Reader) (*Document, error) {
	var d Document
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("netdesc: %w", err)
	}
	return &d, nil
}

// ParseFile reads a pipeline document from a file.
func ParseFile(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netdesc: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Placement is what a document says beyond its run spec: where each
// filter's copies run and the RFR read window. A nil node list or a zero
// value keeps what the run already has.
type Placement struct {
	Layout  pipeline.Layout
	IOChunk [2]int
}

// Place applies the placement's node lists and values over the
// configuration and layout the spec gave, inside a pipeline.Prepare place
// hook.
func (p *Placement) Place(cfg *pipeline.Config, layout *pipeline.Layout) {
	dst, src := layoutLists(layout), layoutLists(&p.Layout)
	for i := range dst {
		if *src[i] != nil {
			*dst[i] = *src[i]
		}
	}
	if p.IOChunk != ([2]int{}) {
		cfg.IOChunk = p.IOChunk
	}
}

// layoutLists lists l's node lists in LayoutXML's order.
func layoutLists(l *pipeline.Layout) [7]*[]int {
	return [7]*[]int{&l.SourceNodes, &l.IICNodes, &l.HMPNodes, &l.HCCNodes, &l.HPCNodes, &l.OutputNodes, &l.JIWNodes}
}

func (x *LayoutXML) lists() [7]*NodesXML {
	return [7]*NodesXML{&x.Source, &x.IIC, &x.HMP, &x.HCC, &x.HPC, &x.Out, &x.JIW}
}

// field pairs one value text of a document with the field it describes.
type field struct {
	text  *string
	value interface {
		encoding.TextMarshaler
		encoding.TextUnmarshaler
	}
}

// fields pairs every value text of d with its field of s or p.
func (d *Document) fields(s *runspec.Spec, p *Placement) []field {
	return []field{
		{&d.Analysis.ROI, &s.ROI}, {&d.Analysis.Gray, count{&s.GrayLevels}},
		{&d.Analysis.NDim, count{&s.NDim}}, {&d.Analysis.Distance, count{&s.Distance}},
		{&d.Analysis.Rep, &s.Representation}, {&d.Analysis.Features, &s.Features},
		{&d.Chunk.Shape, &s.ChunkShape}, {&d.Chunk.IOChunk, ioChunk{&p.IOChunk}},
		{&d.Impl, &s.Impl}, {&d.Policy, &s.Policy},
		{&d.Output.Mode, mode{&s.Output}}, {&d.Output.Dir, (*text)(&s.OutDir)},
	}
}

// count is an int field; 0, the default, is written as nothing.
type count struct{ p *int }

func (c count) UnmarshalText(b []byte) error {
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return fmt.Errorf("invalid count %q", b)
	}
	*c.p = n
	return nil
}

func (c count) MarshalText() ([]byte, error) {
	if *c.p == 0 {
		return nil, nil
	}
	return []byte(strconv.Itoa(*c.p)), nil
}

// ioChunk is the RFR read window, XxY.
type ioChunk struct{ p *[2]int }

func (c ioChunk) UnmarshalText(b []byte) error {
	if _, err := fmt.Sscanf(string(b), "%dx%d", &c.p[0], &c.p[1]); err != nil {
		return fmt.Errorf("invalid iochunk %q (want XxY)", b)
	}
	return nil
}

func (c ioChunk) MarshalText() ([]byte, error) {
	if *c.p == ([2]int{}) {
		return nil, nil
	}
	return []byte(fmt.Sprintf("%dx%d", c.p[0], c.p[1])), nil
}

// mode is the run spec's output; collect, the documents' older name for
// none, still reads.
type mode struct{ *runspec.Output }

func (m mode) UnmarshalText(b []byte) error {
	if string(b) == "collect" {
		b = []byte("none")
	}
	return m.Output.UnmarshalText(b)
}

// text is a string field.
type text string

func (t text) MarshalText() ([]byte, error)  { return []byte(t), nil }
func (t *text) UnmarshalText(b []byte) error { *t = text(b); return nil }

// Decode applies the document to s: every value it holds replaces s's
// field, and every one it omits keeps s's. It returns the rest of the
// document, the placement.
func (d *Document) Decode(s *runspec.Spec) (*Placement, error) {
	if d.Chunk.Packets != "" {
		return nil, fmt.Errorf("netdesc: chunk attribute packets=%q is not supported: HCC sends one matrix batch per kernel grain", d.Chunk.Packets)
	}
	p := &Placement{}
	for _, f := range d.fields(s, p) {
		if t := strings.TrimSpace(*f.text); t != "" {
			if err := f.value.UnmarshalText([]byte(t)); err != nil {
				return nil, fmt.Errorf("netdesc: %w", err)
			}
		}
	}
	for i, x := range d.Layout.lists() {
		nodes, err := parseNodes(x.Nodes)
		if err != nil {
			return nil, err
		}
		*layoutLists(&p.Layout)[i] = nodes
	}
	return p, nil
}

func parseNodes(s string) ([]int, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, nil
	}
	out := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("netdesc: invalid node id %q", f)
		}
		out[i] = n
	}
	return out, nil
}

// Marshal renders a spec and a placement as a document, so a tuned setup
// can be saved and replayed. Zero counts, shapes and lists are left out,
// so decoding the document keeps the caller's values for them.
func Marshal(s *runspec.Spec, p *Placement) ([]byte, error) {
	var d Document
	for _, f := range d.fields(s, p) {
		b, err := f.value.MarshalText()
		if err != nil {
			return nil, fmt.Errorf("netdesc: %w", err)
		}
		*f.text = string(b)
	}
	for i, nodes := range layoutLists(&p.Layout) {
		parts := make([]string, len(*nodes))
		for j, n := range *nodes {
			parts[j] = strconv.Itoa(n)
		}
		d.Layout.lists()[i].Nodes = strings.Join(parts, " ")
	}
	out, err := xml.MarshalIndent(&d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("netdesc: %w", err)
	}
	return append(out, '\n'), nil
}

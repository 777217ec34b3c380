// Package netdesc parses XML pipeline descriptions — the paper expresses
// its filter networks "as an XML document" (§4.3, after Hastings et al.).
// A document describes one end-to-end Haralick pipeline: the analysis
// parameters, the chunk geometry, the implementation and scheduling
// choices, the output stage and the placement of every filter's copies.
//
// Example:
//
//	<pipeline>
//	  <analysis roi="16x16x3x3" gray="32" ndim="4" distance="1"
//	            rep="sparse" features="asm,correlation,variance,idm"/>
//	  <chunk shape="64x64x8x8" iochunk="256x256" packets="4"/>
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

	"haralick4d/internal/core"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/runspec"
)

// Document is the XML representation of one pipeline.
type Document struct {
	XMLName  xml.Name    `xml:"pipeline"`
	Analysis AnalysisXML `xml:"analysis"`
	Chunk    ChunkXML    `xml:"chunk"`
	Impl     string      `xml:"impl"`
	Policy   string      `xml:"policy"`
	Output   OutputXML   `xml:"output"`
	Layout   LayoutXML   `xml:"layout"`
}

// AnalysisXML holds the texture-analysis parameters.
type AnalysisXML struct {
	ROI      string `xml:"roi,attr"`
	Gray     int    `xml:"gray,attr"`
	NDim     int    `xml:"ndim,attr"`
	Distance int    `xml:"distance,attr"`
	Rep      string `xml:"rep,attr"`
	Features string `xml:"features,attr"`
}

// ChunkXML holds the chunk geometry.
type ChunkXML struct {
	Shape   string `xml:"shape,attr"`
	IOChunk string `xml:"iochunk,attr"`
	Packets int    `xml:"packets,attr"`
}

// OutputXML holds the output stage selection.
type OutputXML struct {
	Mode string `xml:"mode,attr"`
	Dir  string `xml:"dir,attr"`
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
	Nodes string `xml:"nodes,attr"`
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

func parseNodes(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fields := strings.Fields(s)
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

// Build converts the document into a pipeline configuration and layout.
// Values share the run spec's parsers (internal/runspec).
func (d *Document) Build() (*pipeline.Config, *pipeline.Layout, error) {
	var (
		roi, chunk runspec.Shape
		feats      runspec.Features
		rep        core.Representation
		impl       pipeline.Impl
		err        error
	)
	for _, p := range []struct {
		dst  encoding.TextUnmarshaler
		text string
	}{
		{&roi, d.Analysis.ROI}, {&chunk, d.Chunk.Shape}, {&feats, d.Analysis.Features},
		{&rep, d.Analysis.Rep}, {&impl, strings.TrimSpace(d.Impl)},
	} {
		if p.text == "" {
			continue
		}
		if err := p.dst.UnmarshalText([]byte(p.text)); err != nil {
			return nil, nil, fmt.Errorf("netdesc: %w", err)
		}
	}
	cfg := &pipeline.Config{
		Analysis: core.Config{
			ROI:            roi,
			GrayLevels:     d.Analysis.Gray,
			NDim:           d.Analysis.NDim,
			Distance:       d.Analysis.Distance,
			Features:       feats,
			Representation: rep,
		},
		ChunkShape:      chunk,
		PacketsPerChunk: d.Chunk.Packets,
		Impl:            impl,
	}
	if d.Chunk.IOChunk != "" {
		if _, err := fmt.Sscanf(d.Chunk.IOChunk, "%dx%d", &cfg.IOChunk[0], &cfg.IOChunk[1]); err != nil {
			return nil, nil, fmt.Errorf("netdesc: invalid iochunk %q (want XxY)", d.Chunk.IOChunk)
		}
	}
	if d.Policy != "" {
		if cfg.Policy, err = filter.ParsePolicy(strings.TrimSpace(d.Policy)); err != nil {
			return nil, nil, fmt.Errorf("netdesc: %w", err)
		}
	}
	switch d.Output.Mode {
	case "", "collect":
		cfg.Output = pipeline.OutputCollect
	case "uso":
		cfg.Output = pipeline.OutputUSO
	case "jpeg":
		cfg.Output = pipeline.OutputJPEG
	default:
		return nil, nil, fmt.Errorf("netdesc: unknown output mode %q", d.Output.Mode)
	}
	cfg.OutDir = d.Output.Dir

	layout := &pipeline.Layout{}
	assign := []struct {
		dst *[]int
		src NodesXML
	}{
		{&layout.SourceNodes, d.Layout.Source},
		{&layout.IICNodes, d.Layout.IIC},
		{&layout.HMPNodes, d.Layout.HMP},
		{&layout.HCCNodes, d.Layout.HCC},
		{&layout.HPCNodes, d.Layout.HPC},
		{&layout.OutputNodes, d.Layout.Out},
		{&layout.JIWNodes, d.Layout.JIW},
	}
	for _, a := range assign {
		nodes, err := parseNodes(a.src.Nodes)
		if err != nil {
			return nil, nil, err
		}
		*a.dst = nodes
	}
	return cfg, layout, nil
}

// Marshal renders a configuration back to the XML form (layout lists are
// written only when non-nil), so a tuned setup can be saved and replayed.
func Marshal(cfg *pipeline.Config, layout *pipeline.Layout) ([]byte, error) {
	nodes := func(ns []int) string {
		parts := make([]string, len(ns))
		for i, n := range ns {
			parts[i] = strconv.Itoa(n)
		}
		return strings.Join(parts, " ")
	}
	mode := map[pipeline.OutputMode]string{
		pipeline.OutputCollect: "collect",
		pipeline.OutputUSO:     "uso",
		pipeline.OutputJPEG:    "jpeg",
	}[cfg.Output]
	d := Document{
		Analysis: AnalysisXML{
			ROI:      runspec.Shape(cfg.Analysis.ROI).String(),
			Gray:     cfg.Analysis.GrayLevels,
			NDim:     cfg.Analysis.NDim,
			Distance: cfg.Analysis.Distance,
			Rep:      cfg.Analysis.Representation.String(),
			Features: runspec.Features(cfg.Analysis.Features).String(),
		},
		Chunk: ChunkXML{
			Shape:   runspec.Shape(cfg.ChunkShape).String(),
			Packets: cfg.PacketsPerChunk,
		},
		Impl:   cfg.Impl.String(),
		Policy: cfg.Policy.String(),
		Output: OutputXML{Mode: mode, Dir: cfg.OutDir},
	}
	if cfg.IOChunk != ([2]int{}) {
		d.Chunk.IOChunk = fmt.Sprintf("%dx%d", cfg.IOChunk[0], cfg.IOChunk[1])
	}
	if layout != nil {
		d.Layout = LayoutXML{
			Source: NodesXML{nodes(layout.SourceNodes)},
			IIC:    NodesXML{nodes(layout.IICNodes)},
			HMP:    NodesXML{nodes(layout.HMPNodes)},
			HCC:    NodesXML{nodes(layout.HCCNodes)},
			HPC:    NodesXML{nodes(layout.HPCNodes)},
			Out:    NodesXML{nodes(layout.OutputNodes)},
			JIW:    NodesXML{nodes(layout.JIWNodes)},
		}
	}
	out, err := xml.MarshalIndent(&d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("netdesc: %w", err)
	}
	return append(out, '\n'), nil
}

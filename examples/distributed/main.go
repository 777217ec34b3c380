// Distributed execution: the same pipeline spread across multiple "nodes"
// whose streams cross real TCP sockets (loopback). Co-located filter copies
// hand buffers over by pointer; copies on different nodes serialize buffers
// with encoding/gob through the kernel network stack — the transport split
// DataCutter makes. Per-filter statistics show the bytes that actually
// crossed the wire.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"os"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/synthetic"
)

func main() {
	dir, err := os.MkdirTemp("", "haralick4d-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A study across 3 storage nodes; 8 virtual nodes total.
	study := synthetic.Generate(synthetic.Config{Dims: [4]int{48, 48, 6, 8}, Seed: 3})
	if _, err := dataset.Write(dir, study, 3); err != nil {
		log.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		log.Fatal(err)
	}

	cfg := &pipeline.Config{
		Analysis: core.Config{
			ROI:            [4]int{8, 8, 3, 3},
			GrayLevels:     32,
			Representation: core.SparseMatrix,
		},
		Impl:   pipeline.SplitImpl,
		Policy: filter.DemandDriven,
		Output: pipeline.OutputCollect,
	}
	// Placement: storage nodes 0-2 run the RFR readers; node 3 runs the
	// IIC; nodes 4-6 run co-located HCC+HPC pairs; node 7 collects output.
	layout := &pipeline.Layout{
		SourceNodes: []int{0, 1, 2},
		IICNodes:    []int{3},
		HCCNodes:    []int{4, 5, 6},
		HPCNodes:    []int{4, 5, 6},
		OutputNodes: []int{7},
	}
	g, sink, outDims, err := pipeline.Build(st, cfg, layout)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running the split HCC+HPC pipeline across 8 TCP-connected nodes...")
	report, err := pipeline.Run(g, pipeline.EngineTCP, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Complete(cfg.Analysis.Features); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed in %v; output dims %v\n\n%s",
		report.Elapsed(), outDims, report.String())

	fmt.Println("note: RFR→IIC and IIC→HCC buffers crossed real sockets; each")
	fmt.Println("co-located HCC→HPC hand-off stayed in memory (pointer copy).")
}

// DCE-MRI workflow: the paper's motivating scenario end to end. A dynamic
// contrast-enhanced MRI study is written to disk declustered across storage
// nodes; the full filter pipeline (RFR readers → IIC stitcher → texture
// filters → HIC output stitcher → JPEG writer) computes 4D Haralick
// parameter maps and renders them as JPEG slice series — the images a
// radiologist (or a downstream classifier) would consume.
//
//	go run ./examples/dcemri [workdir]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filter"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/synthetic"
)

func main() {
	workdir := "dcemri-out"
	if len(os.Args) > 1 {
		workdir = os.Args[1]
	}
	dataDir := filepath.Join(workdir, "study")
	mapsDir := filepath.Join(workdir, "maps")
	for _, d := range []string{dataDir, mapsDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// 1. Acquire: a synthetic breast DCE-MRI study — 64×64 pixels, 8
	// slices, 12 time steps, two enhancing tumors — declustered over 4
	// storage nodes exactly as the paper stores clinical studies.
	fmt.Println("writing DCE-MRI study to disk...")
	study := synthetic.Generate(synthetic.Config{
		Dims: [4]int{64, 64, 8, 12}, Seed: 7, NumTumors: 2,
	})
	if _, err := dataset.Write(dataDir, study, 4); err != nil {
		log.Fatal(err)
	}
	st, err := dataset.Open(dataDir)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Analyze: the split HCC+HPC implementation with the sparse matrix
	// representation — the paper's best configuration — producing stitched
	// 4D parameter datasets rendered as JPEG series.
	cfg := &pipeline.Config{
		Analysis: core.Config{
			ROI:            [4]int{10, 10, 3, 3},
			GrayLevels:     32,
			Representation: core.SparseMatrix,
		},
		Impl:   pipeline.SplitImpl,
		Policy: filter.DemandDriven,
		Output: pipeline.OutputJPEG,
		OutDir: mapsDir,
	}
	layout := &pipeline.Layout{
		HCCNodes: []int{0, 0, 0, 0}, // four co-located HCC+HPC pairs
		HPCNodes: []int{0, 0, 0, 0},
	}
	g, _, outDims, err := pipeline.Build(st, cfg, layout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("running the texture-analysis pipeline...")
	report, err := pipeline.Run(g, pipeline.EngineLocal, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline finished in %v; parameter maps are %v\n", report.Elapsed(), outDims)

	entries, err := os.ReadDir(mapsDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d JPEG parameter images under %s, e.g.:\n", len(entries), mapsDir)
	for i, e := range entries {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", e.Name())
	}
	fmt.Println("bright regions in the correlation/variance maps flag texture anomalies (lesions).")
}

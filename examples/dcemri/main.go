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

	"haralick4d"
)

func main() {
	workdir := "dcemri-out"
	if len(os.Args) > 1 {
		workdir = os.Args[1]
	}
	dataDir := filepath.Join(workdir, "study")
	mapsDir := filepath.Join(workdir, "maps")

	// 1. Acquire: a synthetic breast DCE-MRI study — 64×64 pixels, 8
	// slices, 12 time steps, two enhancing tumors — declustered over 4
	// storage nodes exactly as the paper stores clinical studies.
	fmt.Println("writing DCE-MRI study to disk...")
	study := haralick4d.GeneratePhantom(haralick4d.PhantomConfig{
		Dims: [4]int{64, 64, 8, 12}, Seed: 7, NumTumors: 2,
	})
	if err := haralick4d.WriteDataset(dataDir, study, 4); err != nil {
		log.Fatal(err)
	}

	// 2. Analyze: the split HCC+HPC implementation with the sparse matrix
	// representation — the paper's best configuration — on four texture
	// copies, producing stitched 4D parameter datasets rendered as JPEG
	// series.
	fmt.Println("running the texture-analysis pipeline...")
	res, err := haralick4d.AnalyzeDataset(dataDir, &haralick4d.Options{Spec: haralick4d.Spec{
		ROI:            [4]int{10, 10, 3, 3},
		GrayLevels:     32,
		Representation: haralick4d.SparseMatrix,
		Impl:           haralick4d.Split,
		Output:         haralick4d.OutputJPEG,
		OutDir:         mapsDir,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline finished in %v; parameter maps are %v\n", res.Report.Elapsed(), res.OutputDims)

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

// Quickstart: run 4D Haralick texture analysis on a small synthetic DCE-MRI
// study entirely in memory, using the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"haralick4d"
)

func main() {
	// A small synthetic DCE-MRI study: 48×48 pixels, 6 slices, 8 time
	// steps, with two contrast-enhancing lesions.
	study := haralick4d.GeneratePhantom(haralick4d.PhantomConfig{
		Dims: [4]int{48, 48, 6, 8},
		Seed: 42,
	})

	// Analyze with an 8×8×3×3 ROI at 32 gray levels, computing the paper's
	// four parameters over all 40 unique 4D directions, in parallel.
	res, err := haralick4d.Analyze(study, &haralick4d.Options{Spec: haralick4d.Spec{
		ROI:        [4]int{8, 8, 3, 3},
		GrayLevels: 32,
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("analyzed %v study -> %v parameter maps\n", study.Dims, res.OutputDims)
	for _, f := range haralick4d.PaperFeatures() {
		grid := res.Grids[f]
		lo, hi := grid.MinMax()
		mean := 0.0
		for _, v := range grid.Data {
			mean += v
		}
		mean /= float64(len(grid.Data))
		fmt.Printf("  %-22s min %8.4f   mean %8.4f   max %8.4f\n", f, lo, mean, hi)
	}

	// Texture distinguishes tissue: compare entropy at the center (lesion
	// territory) against a corner (background).
	opts := &haralick4d.Options{Spec: haralick4d.Spec{
		ROI:        [4]int{8, 8, 3, 3},
		GrayLevels: 32,
		Features:   []haralick4d.Feature{haralick4d.Entropy},
	}}
	res2, err := haralick4d.Analyze(study, opts)
	if err != nil {
		log.Fatal(err)
	}
	ent := res2.Grids[haralick4d.Entropy]
	d := res2.OutputDims
	center := ent.At(d[0]/2, d[1]/2, d[2]/2, d[3]/2)
	corner := ent.At(0, 0, 0, 0)
	fmt.Printf("entropy at center %.3f vs corner %.3f\n", center, corner)
}

// Command gendata synthesizes a DCE-MRI phantom study and writes it as a
// disk-resident dataset declustered across storage-node directories, in the
// format the paper's pipeline reads (one file per 2D slice, round-robin
// across nodes, per-node index files, JSON header). -format picks the slice
// encoding: raw values (the paper's) or one DICOM Part-10 object per slice.
//
// Usage:
//
//	gendata -out /data/study1 -dims 256x256x32x32 -nodes 4 -seed 7
//	gendata -out /data/study1-dcm -dims 256x256x32x32 -nodes 4 -seed 7 -format dicom
package main

import (
	"flag"
	"fmt"
	"os"

	"haralick4d/internal/dataset"
	"haralick4d/internal/synthetic"
)

func main() {
	var (
		out    = flag.String("out", "", "output dataset directory (required)")
		dims   = flag.String("dims", "64x64x16x16", "dataset dimensions XxYxZxT")
		nodes  = flag.Int("nodes", 4, "storage nodes to decluster across")
		seed   = flag.Int64("seed", 1, "phantom random seed")
		tumors = flag.Int("tumors", 2, "number of enhancing lesions")
		noise  = flag.Float64("noise", 8, "acquisition noise sigma")
		format = flag.String("format", "raw", "slice encoding: raw (paper layout) or dicom (one Part-10 object per slice)")
		distS  = flag.String("dist", "round-robin", "declustering policy: round-robin, block, slice-mod")

		corruptFrac = flag.Float64("corrupt-frac", 0, "after writing, damage this fraction of slice files (byte flips, truncations and deletions cycled deterministically) for fault-tolerance testing")
		corruptSeed = flag.Int64("corrupt-seed", 1, "seed selecting which slices -corrupt-frac damages")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "gendata: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	var d [4]int
	if _, err := fmt.Sscanf(*dims, "%dx%dx%dx%d", &d[0], &d[1], &d[2], &d[3]); err != nil {
		fmt.Fprintf(os.Stderr, "gendata: invalid -dims %q: %v\n", *dims, err)
		os.Exit(2)
	}
	if *corruptFrac < 0 || *corruptFrac > 1 {
		fmt.Fprintf(os.Stderr, "gendata: -corrupt-frac %v outside [0, 1]\n", *corruptFrac)
		os.Exit(2)
	}
	enc, err := dataset.ParseEncoding(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
		os.Exit(2)
	}
	dist, err := dataset.ParseDistribution(*distS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("generating %s phantom (seed %d)...\n", *dims, *seed)
	v := synthetic.Generate(synthetic.Config{
		Dims:       d,
		Seed:       *seed,
		NumTumors:  *tumors,
		NoiseSigma: *noise,
	})
	meta, err := dataset.WriteDistributed(*out, v, *nodes, dist, enc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d %s slices across %d storage nodes under %s (intensity range [%d, %d])\n",
		d[2]*d[3], enc, meta.Nodes, *out, meta.Min, meta.Max)
	if *corruptFrac > 0 {
		damaged, err := dataset.CorruptSlices(*out, *corruptFrac, *corruptSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("corrupted %d slice files (seed %d):\n", len(damaged), *corruptSeed)
		for _, f := range damaged {
			fmt.Printf("  %s\n", f)
		}
	}
}

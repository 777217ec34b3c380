// Heterogeneous-cluster scheduling: reproduce the paper's §5.3 experiment
// interactively. The pipeline runs on a simulated environment of a slow
// Xeon cluster and a faster Opteron cluster joined by a Gigabit trunk, and
// compares round-robin against demand-driven buffer scheduling. The
// demand-driven scheduler steers co-occurrence matrix buffers toward the
// copies that consume them fastest — the Opteron HCCs whose HPC consumers
// are co-located — exactly the effect the paper reports in Figure 11.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"os"

	"haralick4d/internal/cluster"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/synthetic"
)

func main() {
	dir, err := os.MkdirTemp("", "haralick4d-hetero")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	study := synthetic.Generate(synthetic.Config{Dims: [4]int{48, 48, 8, 8}, Seed: 1})
	if _, err := dataset.Write(dir, study, 4); err != nil {
		log.Fatal(err)
	}
	st, err := dataset.Open(dir)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's second heterogeneous environment: 5 dual-Xeon boxes and
	// 6 dual-Opteron boxes, Gigabit everywhere.
	h := cluster.NewHeterogeneous([]cluster.ClusterSpec{
		{Name: "XEON", Nodes: 5, CPUs: 2, Speed: cluster.SpeedXeon, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
		{Name: "OPTERON", Nodes: 6, CPUs: 2, Speed: cluster.SpeedOpteron, Latency: cluster.LANLatency, MBps: cluster.GigabitMBps},
	}, cluster.Link{Latency: cluster.LANLatency, MBPerSecond: cluster.GigabitMBps})

	// 4 RFR, 1 IIC, 2 HPC and the output filter on OPTERON; 4 HCC copies
	// on each cluster (the paper's Figure 11 layout).
	layout := &pipeline.Layout{
		SourceNodes: []int{10, 12, 14, 16},
		IICNodes:    []int{18},
		HPCNodes:    []int{11, 13},
		HCCNodes:    []int{0, 2, 4, 6, 15, 17, 19, 21},
		OutputNodes: []int{20},
	}

	fmt.Println("simulating the XEON+OPTERON environment (virtual time)...")
	for _, policy := range []filter.Policy{filter.RoundRobin, filter.DemandDriven} {
		cfg := &pipeline.Config{
			Analysis: core.Config{
				ROI:            [4]int{8, 8, 3, 3},
				GrayLevels:     32,
				Representation: core.SparseMatrix,
			},
			// Fine-grained chunks give the scheduler enough buffers to
			// express a preference.
			ChunkShape: [4]int{16, 16, 5, 5},
			Impl:       pipeline.SplitImpl,
			Policy:     policy,
			Output:     pipeline.OutputCollect,
		}
		// Three repetitions, keeping the fastest: the simulation charges
		// real host time as virtual compute, so host jitter (GC pauses)
		// must be filtered out like in any benchmark.
		var best *metrics.RunReport
		for rep := 0; rep < 3; rep++ {
			g, _, _, err := pipeline.Build(st, cfg, layout)
			if err != nil {
				log.Fatal(err)
			}
			s, err := pipeline.Run(g, pipeline.EngineSim, &pipeline.RunOptions{
				Topology:      &h.Topology,
				SimQueueDepth: 16,
				ComputeScale:  2.5,
			})
			if err != nil {
				log.Fatal(err)
			}
			if best == nil || s.Elapsed() < best.Elapsed() {
				best = s
			}
		}
		var xeonBufs, opteronBufs int64
		for _, c := range best.Filter("HCC").Copies {
			if h.ClusterOf(c.Node) == 0 {
				xeonBufs += c.MsgsIn
			} else {
				opteronBufs += c.MsgsIn
			}
		}
		fmt.Printf("  %-14s execution time %10v   chunks to XEON HCCs: %3d, to OPTERON HCCs: %3d\n",
			policy, best.Elapsed().Round(1e6), xeonBufs, opteronBufs)
	}
	fmt.Println("demand-driven shifts chunks toward the faster, better-placed OPTERON copies (paper Fig. 11).")
}

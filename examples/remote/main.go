// Remote storage: the full texture pipeline reading its dataset over HTTP
// range requests, exactly as it would from an object store — the storage
// nodes become elastic. The example starts an in-process HTTP server over a
// generated study (any server with Range support works: cmd/dataserve,
// nginx, an S3 gateway), analyzes the dataset through
// haralick4d.AnalyzeDataset, prints the backend I/O counters the run report
// collects, and checks the maps against a run from local disk.
//
//	go run ./examples/remote
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"haralick4d"
)

func main() {
	dir, err := os.MkdirTemp("", "haralick4d-remote")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A study declustered across 3 storage nodes, then published over HTTP.
	study := haralick4d.GeneratePhantom(haralick4d.PhantomConfig{
		Dims: [4]int{48, 48, 6, 8}, Seed: 3,
	})
	if err := haralick4d.WriteDataset(dir, study, 3); err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()
	fmt.Printf("serving %s at %s\n\n", dir, srv.URL)

	opts := &haralick4d.Options{Spec: haralick4d.Spec{
		ROI:        [4]int{8, 8, 3, 3},
		GrayLevels: 32,
		Texture:    3,
	}}

	remote, err := haralick4d.AnalyzeDataset(srv.URL, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote run: output dims %v\n", remote.OutputDims)
	for _, be := range remote.Report.Backends {
		fmt.Printf("  backend %s (%s): %d opens, %d reads, %d bytes\n",
			be.Scheme, be.URL, be.Opens, be.Reads, be.ReadBytes)
	}
	fmt.Println()

	// The same maps from local disk, proving the transport changes nothing.
	local, err := haralick4d.AnalyzeDataset(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range haralick4d.PaperFeatures() {
		a, b := local.Grids[f], remote.Grids[f]
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				log.Fatalf("%v differs between local and remote reads", f)
			}
		}
	}
	fmt.Println("local and remote feature maps are bit-identical")
}

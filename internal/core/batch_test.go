package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// streamBoxes are origin boxes of 1, 2, 3, 4 and 8 (z, t) planes inside the
// 7×5×3×4 origins of a 9×7×4×5 region under a 3×3×2×2 ROI, off the region's
// corner along x, y and t.
var streamBoxes = []volume.Box{
	{Lo: [4]int{1, 0, 0, 1}, Hi: [4]int{6, 5, 1, 2}},
	{Lo: [4]int{0, 1, 0, 1}, Hi: [4]int{7, 5, 2, 2}},
	{Lo: [4]int{1, 0, 0, 2}, Hi: [4]int{7, 5, 3, 3}},
	{Lo: [4]int{0, 0, 1, 0}, Hi: [4]int{7, 4, 3, 2}},
	{Lo: [4]int{2, 1, 1, 0}, Hi: [4]int{7, 5, 3, 4}},
}

func streamRegion(seed int64, g int) *volume.Region {
	rng := rand.New(rand.NewSource(seed))
	r := volume.NewRegion(volume.BoxAt([4]int{}, [4]int{9, 7, 4, 5}))
	for i := range r.Data {
		r.Data[i] = uint8(rng.Intn(g))
	}
	return r
}

// TestStreamMatchesScanRegion: the streamed batches hold the oracle's
// matrix at every origin — sparse for the sparse representation, dense for
// both full ones — each origin arrives exactly once, and the batches' Stats
// equal the oracle's, at 1, 2 and 3 workers.
func TestStreamMatchesScanRegion(t *testing.T) {
	region := streamRegion(5, 16)
	for _, rep := range []Representation{SparseMatrix, FullMatrix, FullMatrixNoSkip} {
		for _, box := range streamBoxes {
			cfg := Config{ROI: [4]int{3, 3, 2, 2}, GrayLevels: 16, NDim: 4, Distance: 1, Representation: rep, Features: features.All()}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			// The oracle: a copy of every matrix, keyed by origin; ScanRegion
			// visits the full representations as dense matrices.
			want := map[[4]int]any{}
			var wantStats Stats
			err := ScanRegion(region, box, &cfg, &wantStats, func(p [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
				if sparse != nil {
					want[p] = glcm.Sparse{G: sparse.G, Entries: append([]glcm.Entry(nil), sparse.Entries...), Total: sparse.Total}
				} else {
					want[p] = glcm.Full{G: full.G, Counts: append([]uint32(nil), full.Counts...), Total: full.Total}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				tag := fmt.Sprintf("%v %d planes workers %d", rep, box.Shape()[2]*box.Shape()[3], workers)
				cfg.Workers = workers
				seen := map[[4]int]bool{}
				var stats Stats
				err := StreamBatches(region, box, &cfg, &stats, NewBatchList(4, nil), func(b *MatrixBatch) error {
					defer b.Release()
					if !box.ContainsBox(b.Origins) || b.Origins.Shape()[2] != 1 || b.Origins.Shape()[3] != 1 {
						return fmt.Errorf("batch origins %v are not a grain of %v", b.Origins, box)
					}
					k := 0
					return forEachOrigin(b.Origins, func(p [4]int) error {
						if seen[p] {
							return fmt.Errorf("origin %v arrived twice", p)
						}
						seen[p] = true
						var got any
						if rep == SparseMatrix {
							got = *b.Sparse[k]
						} else {
							got = *b.Full[k]
						}
						k++
						if !reflect.DeepEqual(got, want[p]) {
							return fmt.Errorf("matrix at %v differs from the oracle's", p)
						}
						return nil
					})
				})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if len(seen) != box.NumVoxels() {
					t.Fatalf("%s: %d origins arrived, want %d", tag, len(seen), box.NumVoxels())
				}
				if stats != wantStats {
					t.Errorf("%s: stats %+v, want %+v", tag, stats, wantStats)
				}
			}
		}
	}
}

// forEachOrigin visits the origins of b in raster order.
func forEachOrigin(b volume.Box, visit func([4]int) error) error {
	var p [4]int
	for p[3] = b.Lo[3]; p[3] < b.Hi[3]; p[3]++ {
		for p[2] = b.Lo[2]; p[2] < b.Hi[2]; p[2]++ {
			for p[1] = b.Lo[1]; p[1] < b.Hi[1]; p[1]++ {
				for p[0] = b.Lo[0]; p[0] < b.Hi[0]; p[0]++ {
					if err := visit(p); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// TestStreamWarmListMakesNoArena: once one chunk has streamed through a free
// list, holding every batch until its end (as a consumer behind a queue
// may), the next chunk, whose batches are released as soon as they arrive
// (as the TCP transport does after its write), takes every container off
// the list and stores its matrices in the arenas those containers already
// have. The box of 8 planes deals whole planes, the 1-plane box runs of
// rows, uneven at one worker.
func TestStreamWarmListMakesNoArena(t *testing.T) {
	region := streamRegion(11, 32)
	for _, rep := range []Representation{SparseMatrix, FullMatrixNoSkip} {
		for _, box := range []volume.Box{streamBoxes[0], streamBoxes[4]} {
			for _, workers := range []int{1, 3} {
				tag := fmt.Sprintf("%v %v workers %d", rep, box, workers)
				cfg := Config{ROI: [4]int{3, 3, 2, 2}, GrayLevels: 32, NDim: 4, Distance: 1, Representation: rep, Workers: workers}
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				var fresh atomic.Int64
				free := NewBatchList(8, func(hit bool) {
					if !hit {
						fresh.Add(1)
					}
				})
				var held []*MatrixBatch
				err := StreamBatches(region, box, &cfg, nil, free, func(b *MatrixBatch) error {
					held = append(held, b)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range held {
					b.Release()
				}
				arenas := map[unsafe.Pointer]bool{}
				for _, b := range free.free {
					arenas[unsafe.Pointer(unsafe.SliceData(b.entries))] = true
					arenas[unsafe.Pointer(unsafe.SliceData(b.cells))] = true
				}
				fresh.Store(0)
				err = StreamBatches(region, box, &cfg, nil, free, func(b *MatrixBatch) error {
					var data unsafe.Pointer
					if rep == SparseMatrix {
						data = unsafe.Pointer(unsafe.SliceData(b.Sparse[0].Entries))
					} else {
						data = unsafe.Pointer(unsafe.SliceData(b.Full[0].Counts))
					}
					if !arenas[data] {
						return fmt.Errorf("batch %v stored its matrices in a new arena", b.Origins)
					}
					b.Release()
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if n := fresh.Load(); n != 0 {
					t.Errorf("%s: %d new containers on the warm list", tag, n)
				}
			}
		}
	}
}

// TestStreamEmitErrorStops: an error from emit ends the stream with that
// error, whatever the worker count, and no later batch is emitted.
func TestStreamEmitErrorStops(t *testing.T) {
	region := streamRegion(3, 8)
	box := streamBoxes[4]
	stop := errors.New("consumer gone")
	for _, workers := range []int{1, 3} {
		cfg := Config{ROI: [4]int{3, 3, 2, 2}, GrayLevels: 8, NDim: 4, Distance: 1, Representation: SparseMatrix, Workers: workers}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		calls := 0
		err := StreamBatches(region, box, &cfg, nil, NewBatchList(4, nil), func(b *MatrixBatch) error {
			calls++
			b.Release()
			return stop
		})
		if !errors.Is(err, stop) || calls != 1 {
			t.Errorf("workers %d: err %v after %d emits, want %v after 1", workers, err, calls, stop)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"haralick4d/internal/features"
	"haralick4d/internal/volume"
)

// analyzeAll runs AnalyzeGrid with all fourteen features at every
// representation and at workers 1 (the sequential oracle) and 2 (the
// blocked kernel), keyed by "rep/workers".
func analyzeAll(t *testing.T, grid *volume.Grid, roi [4]int) map[string][]*volume.FloatGrid {
	t.Helper()
	runs := make(map[string][]*volume.FloatGrid)
	for _, rep := range []Representation{FullMatrix, FullMatrixNoSkip, SparseMatrix} {
		for _, workers := range []int{1, 2} {
			cfg := Config{ROI: roi, GrayLevels: grid.G, NDim: 4, Distance: 1, Features: features.All(), Representation: rep, Workers: workers}
			out, err := AnalyzeGrid(grid, &cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			runs[fmt.Sprintf("%v/w%d", rep, workers)] = out
		}
	}
	return runs
}

// TestGrayReversalEndToEnd: reversing every gray level, g → G−1−g, reflects
// each co-occurrence matrix about its anti-diagonal. That leaves Σ C², the
// difference histogram C_{x−y} and the exact numerators of variance and
// covariance (T·S2 − S1², T·Σ C·i·j − S1²) unchanged, so ASM, contrast, IDM,
// variance, correlation and the two difference features must come out bit
// for bit. Sum average reflects too, to 2(G−1) − f6; the others are
// invariant up to rounding.
func TestGrayReversalEndToEnd(t *testing.T) {
	exact := map[features.Feature]bool{
		features.ASM: true, features.Contrast: true, features.IDM: true, features.Variance: true,
		features.Correlation: true, features.DifferenceVariance: true, features.DifferenceEntropy: true,
	}
	rng := rand.New(rand.NewSource(5))
	for _, g := range []int{8, 32} {
		grid := randomGrid(rng, [4]int{9, 7, 5, 4}, g)
		rev := volume.NewGrid(grid.Dims, g)
		for i, v := range grid.Data {
			rev.Data[i] = uint8(g-1) - v
		}
		a, b := analyzeAll(t, grid, [4]int{3, 3, 2, 2}), analyzeAll(t, rev, [4]int{3, 3, 2, 2})
		for run, fwd := range a {
			for fi, f := range features.All() {
				for k, x := range fwd[fi].Data {
					y := b[run][fi].Data[k]
					if f == features.SumAverage {
						y = float64(2*(g-1)) - y
					}
					if exact[f] && math.Float64bits(x) != math.Float64bits(y) ||
						math.Abs(x-y) > 1e-12*math.Max(1, math.Abs(x)) {
						t.Fatalf("G=%d %s: %v at %d is %v, reversed %v", g, run, f, k, x, y)
					}
				}
			}
		}
	}
}

// TestAxisPermutationEndToEnd: permuting the volume's axes, and the ROI's
// with them, permutes the output grid. The 4D distance-1 direction set is
// closed under axis permutation and the matrices are symmetric, so every
// ROI's counts are the same integers and all fourteen features must be
// bit-identical.
func TestAxisPermutationEndToEnd(t *testing.T) {
	dims, roi := [4]int{9, 7, 5, 4}, [4]int{3, 3, 2, 2}
	grid := randomGrid(rand.New(rand.NewSource(6)), dims, 8)
	base := analyzeAll(t, grid, roi)
	for _, perm := range [][4]int{{1, 0, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}} {
		// Axis a of the permuted volume is axis perm[a] of the original.
		var pdims, proi [4]int
		for a, src := range perm {
			pdims[a], proi[a] = dims[src], roi[src]
		}
		pgrid := volume.NewGrid(pdims, grid.G)
		forEach(dims, func(c [4]int) {
			pgrid.Set(c[perm[0]], c[perm[1]], c[perm[2]], c[perm[3]], grid.At(c[0], c[1], c[2], c[3]))
		})
		for run, got := range analyzeAll(t, pgrid, proi) {
			want := base[run]
			for fi, f := range features.All() {
				forEach(want[fi].Dims, func(c [4]int) {
					x, y := want[fi].At(c[0], c[1], c[2], c[3]), got[fi].At(c[perm[0]], c[perm[1]], c[perm[2]], c[perm[3]])
					if math.Float64bits(x) != math.Float64bits(y) {
						t.Fatalf("perm %v %s: %v at %v is %v, permuted %v", perm, run, f, c, x, y)
					}
				})
			}
		}
	}
}

// forEach visits every coordinate of a grid with the given dims.
func forEach(dims [4]int, visit func(c [4]int)) {
	for t := 0; t < dims[3]; t++ {
		for z := 0; z < dims[2]; z++ {
			for y := 0; y < dims[1]; y++ {
				for x := 0; x < dims[0]; x++ {
					visit([4]int{x, y, z, t})
				}
			}
		}
	}
}

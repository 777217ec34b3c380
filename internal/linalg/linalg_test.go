package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEigenSymDiagonal(t *testing.T) {
	a := NewSym(3)
	a.Set(0, 0, 5)
	a.Set(1, 1, -2)
	a.Set(2, 2, 1)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 1, -2}
	for i, w := range want {
		if !almostEqual(eig[i], w, 1e-12) {
			t.Errorf("eig[%d] = %v, want %v", i, eig[i], w)
		}
	}
}

func TestEigenSym2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewSym(2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	a.Set(0, 1, 1)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(eig[0], 3, 1e-12) || !almostEqual(eig[1], 1, 1e-12) {
		t.Errorf("eig = %v, want [3 1]", eig)
	}
}

func TestEigenSym3x3Known(t *testing.T) {
	// Tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]]: eigenvalues 2-√2, 2, 2+√2.
	a := NewSym(3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 2)
	}
	a.Set(0, 1, -1)
	a.Set(1, 2, -1)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 + math.Sqrt2, 2, 2 - math.Sqrt2}
	for i, w := range want {
		if !almostEqual(eig[i], w, 1e-12) {
			t.Errorf("eig[%d] = %v, want %v", i, eig[i], w)
		}
	}
}

func TestEigenSymZeroAndEmpty(t *testing.T) {
	eig, err := EigenSym(NewSym(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range eig {
		if v != 0 {
			t.Errorf("zero matrix eig[%d] = %v", i, v)
		}
	}
	eig, err = EigenSym(NewSym(0))
	if err != nil || eig != nil {
		t.Errorf("empty matrix: got %v, %v", eig, err)
	}
}

func TestEigenSymDoesNotModifyInput(t *testing.T) {
	a := randomSym(rand.New(rand.NewSource(7)), 6)
	before := a.Clone()
	if _, err := EigenSym(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != before.Data[i] {
			t.Fatalf("input modified at %d", i)
		}
	}
}

func randomSym(rng *rand.Rand, n int) *Sym {
	a := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	return a
}

// Property: trace(A) equals the sum of eigenvalues and ‖A‖_F² equals the sum
// of squared eigenvalues (both exact invariants of the spectrum).
func TestEigenSymInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%8) + 1
		a := randomSym(rand.New(rand.NewSource(seed)), n)
		eig, err := EigenSym(a)
		if err != nil {
			return false
		}
		trace, frob2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			for j := 0; j < n; j++ {
				frob2 += a.At(i, j) * a.At(i, j)
			}
		}
		sum, sum2 := 0.0, 0.0
		for _, v := range eig {
			sum += v
			sum2 += v * v
		}
		scale := math.Max(1, math.Sqrt(frob2))
		return almostEqual(trace, sum, 1e-9*scale) && almostEqual(frob2, sum2, 1e-9*scale*scale)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: eigenvalues are returned sorted in descending order.
func TestEigenSymSortedProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%10) + 1
		a := randomSym(rand.New(rand.NewSource(seed)), n)
		eig, err := EigenSym(a)
		if err != nil {
			return false
		}
		for i := 1; i < len(eig); i++ {
			if eig[i] > eig[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for a PSD matrix BᵀB all eigenvalues are non-negative.
func TestEigenSymPSDProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		n := int(sizeRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		a := NewSym(n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += b[k][i] * b[k][j]
				}
				a.Set(i, j, sum)
			}
		}
		eig, err := EigenSym(a)
		if err != nil {
			return false
		}
		for _, v := range eig {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSecondLargestEigenvalue(t *testing.T) {
	a := NewSym(2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	a.Set(0, 1, 1)
	v, err := SecondLargestEigenvalue(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 1, 1e-12) {
		t.Errorf("second eigenvalue = %v, want 1", v)
	}
	if v, _ := SecondLargestEigenvalue(NewSym(1)); v != 0 {
		t.Errorf("1x1 second eigenvalue = %v, want 0", v)
	}
	// In place, it is the same Jacobi run as EigenSym's: the same bits.
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 9; n++ {
		a := randomSym(rng, n)
		eig, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := SecondLargestEigenvalue(a.Clone()); err != nil || v != eig[1] {
			t.Errorf("n=%d: second eigenvalue %v (%v), EigenSym says %v", n, v, err, eig[1])
		}
	}
}

func TestMatVecDotNorm(t *testing.T) {
	a := NewSym(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 1, 3)
	y := MatVec(a, []float64{1, 1})
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("MatVec = %v, want [3 5]", y)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Error("Norm2 wrong")
	}
}

func TestMaxSymError(t *testing.T) {
	a := NewSym(2)
	a.Set(0, 1, 1)
	if a.MaxSymError() != 0 {
		t.Error("Set should preserve symmetry")
	}
	a.Data[1] = 2 // break symmetry directly
	if a.MaxSymError() != 1 {
		t.Errorf("MaxSymError = %v, want 1", a.MaxSymError())
	}
}

// Rayleigh-quotient check: the largest eigenvalue must dominate xᵀAx/xᵀx for
// random probe vectors.
func TestEigenSymRayleighBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSym(rng, 8)
	eig, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 8)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		r := Dot(x, MatVec(a, x)) / Dot(x, x)
		if r > eig[0]+1e-9 || r < eig[len(eig)-1]-1e-9 {
			t.Fatalf("Rayleigh quotient %v outside [%v, %v]", r, eig[len(eig)-1], eig[0])
		}
	}
}

// Package linalg provides the small dense linear-algebra kernels needed by
// the Haralick feature computations: a cyclic Jacobi eigensolver for real
// symmetric matrices and a handful of vector helpers.
//
// The matrices involved are tiny (G×G where G is the number of gray levels,
// typically 32), so a simple O(n³)-per-sweep Jacobi iteration is both robust
// and fast enough; it also has the advantage of computing all eigenvalues of
// a symmetric matrix to high relative accuracy, which matters because the
// maximal correlation coefficient (Haralick f14) needs the *second largest*
// eigenvalue of a matrix whose largest eigenvalue is exactly 1.
package linalg

import (
	"errors"
	"math"
	"sort"
)

// Sym is a dense real symmetric matrix stored in row-major order. Only the
// full storage is kept (no packing); callers must keep it symmetric.
type Sym struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j]
}

// NewSym returns a zero N×N symmetric matrix.
func NewSym(n int) *Sym {
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 { return s.Data[i*s.N+j] }

// Set sets both (i, j) and (j, i) to v, preserving symmetry.
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// Clone returns a deep copy of the matrix.
func (s *Sym) Clone() *Sym {
	c := NewSym(s.N)
	copy(c.Data, s.Data)
	return c
}

// MaxSymError reports the largest absolute asymmetry |a(i,j)-a(j,i)|.
// Useful for validating inputs in tests.
func (s *Sym) MaxSymError() float64 {
	max := 0.0
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			d := math.Abs(s.At(i, j) - s.At(j, i))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// offDiagNorm returns the Frobenius norm of the strictly upper triangle.
func (s *Sym) offDiagNorm() float64 {
	sum := 0.0
	for i := 0; i < s.N; i++ {
		for j := i + 1; j < s.N; j++ {
			v := s.At(i, j)
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// ErrNoConvergence is returned when the Jacobi iteration fails to reduce the
// off-diagonal norm below tolerance within the sweep limit. With the default
// limits this does not happen for well-scaled inputs.
var ErrNoConvergence = errors.New("linalg: jacobi eigensolver did not converge")

const (
	jacobiMaxSweeps = 64
	jacobiTol       = 1e-13
)

// EigenSym computes all eigenvalues of the symmetric matrix a using cyclic
// Jacobi rotations. The input is not modified. Eigenvalues are returned in
// descending order. The tolerance is relative to the Frobenius norm of a.
func EigenSym(a *Sym) ([]float64, error) {
	if a.N == 0 {
		return nil, nil
	}
	w := a.Clone()
	if err := jacobi(w); err != nil {
		return nil, err
	}
	return sortedDiag(w), nil
}

// jacobi diagonalizes w in place, leaving its eigenvalues on the diagonal.
func jacobi(w *Sym) error {
	n := w.N
	// Scale tolerance by the matrix norm so that tiny matrices converge.
	norm := 0.0
	for _, v := range w.Data {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return nil
	}
	tol := jacobiTol * norm

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if w.offDiagNorm() <= tol {
			return nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= tol/float64(n*n) {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Compute the Jacobi rotation that zeroes (p, q).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyRotation(w, p, q, c, s)
			}
		}
	}
	if w.offDiagNorm() <= tol*10 {
		return nil
	}
	return ErrNoConvergence
}

// applyRotation applies the similarity transform Jᵀ W J where J is the Givens
// rotation in the (p, q) plane with cosine c and sine s.
func applyRotation(w *Sym, p, q int, c, s float64) {
	n := w.N
	for k := 0; k < n; k++ {
		if k == p || k == q {
			continue
		}
		akp := w.At(k, p)
		akq := w.At(k, q)
		w.Set(k, p, c*akp-s*akq)
		w.Set(k, q, s*akp+c*akq)
	}
	app := w.At(p, p)
	aqq := w.At(q, q)
	apq := w.At(p, q)
	w.Data[p*n+p] = c*c*app - 2*s*c*apq + s*s*aqq
	w.Data[q*n+q] = s*s*app + 2*s*c*apq + c*c*aqq
	w.Set(p, q, 0)
}

func sortedDiag(w *Sym) []float64 {
	eig := make([]float64, w.N)
	for i := 0; i < w.N; i++ {
		eig[i] = w.At(i, i)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig
}

// SecondLargestEigenvalue returns the second largest eigenvalue of a, or 0
// for matrices smaller than 2×2. It diagonalizes a in place — a holds no
// useful values afterwards — and allocates nothing.
func SecondLargestEigenvalue(a *Sym) (float64, error) {
	if a.N < 2 {
		return 0, nil
	}
	if err := jacobi(a); err != nil {
		return 0, err
	}
	first, second := math.Inf(-1), math.Inf(-1)
	for i := 0; i < a.N; i++ {
		if v := a.At(i, i); v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return second, nil
}

// MatVec computes y = A·x for the symmetric matrix a.
func MatVec(a *Sym, x []float64) []float64 {
	n := a.N
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
	return y
}

// Dot returns the inner product of x and y; the slices must be equal length.
func Dot(x, y []float64) float64 {
	sum := 0.0
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Package features computes Haralick's fourteen textural parameters from a
// gray-level co-occurrence matrix, with computation paths for both the dense
// ("full") and sparse matrix representations studied by the paper.
//
// Conventions:
//   - natural logarithms; 0·log 0 is taken as 0;
//   - the normalized matrix p(i, j) always sums to 1 (the representations in
//     package glcm guarantee identical p across forms);
//   - degenerate denominators (constant regions) yield 0 for the affected
//     feature rather than NaN, so output images remain renderable;
//   - f7 (sum variance) is centered on f6 (sum average), the standard
//     correction of the erratum in Haralick's 1973 paper.
package features

import (
	"fmt"
	"math"
	"strings"

	"haralick4d/internal/glcm"
	"haralick4d/internal/linalg"
)

// Feature identifies one of Haralick's fourteen textural parameters.
type Feature int

// The fourteen parameters, in Haralick's original numbering f1–f14.
const (
	ASM                 Feature = iota // f1: angular second moment (energy)
	Contrast                           // f2
	Correlation                        // f3
	Variance                           // f4: sum of squares: variance
	IDM                                // f5: inverse difference moment
	SumAverage                         // f6
	SumVariance                        // f7
	SumEntropy                         // f8
	Entropy                            // f9
	DifferenceVariance                 // f10
	DifferenceEntropy                  // f11
	InfoCorrelation1                   // f12: information measure of correlation 1
	InfoCorrelation2                   // f13: information measure of correlation 2
	MaxCorrelationCoeff                // f14: maximal correlation coefficient
	NumFeatures         = iota
)

var featureNames = [NumFeatures]string{
	"asm", "contrast", "correlation", "variance", "idm",
	"sum-average", "sum-variance", "sum-entropy", "entropy",
	"difference-variance", "difference-entropy",
	"info-correlation-1", "info-correlation-2", "max-correlation-coeff",
}

// String returns the canonical lower-case hyphenated name of the feature.
func (f Feature) String() string {
	if f < 0 || int(f) >= NumFeatures {
		return fmt.Sprintf("feature(%d)", int(f))
	}
	return featureNames[f]
}

// Parse returns the feature with the given canonical name (see String).
func Parse(name string) (Feature, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	for i, n := range featureNames {
		if n == name {
			return Feature(i), nil
		}
	}
	return 0, fmt.Errorf("features: unknown feature %q", name)
}

// All returns all fourteen features in f1–f14 order.
func All() []Feature {
	fs := make([]Feature, NumFeatures)
	for i := range fs {
		fs[i] = Feature(i)
	}
	return fs
}

// PaperSet returns the four parameters used throughout the paper's
// evaluation — "four of the most computation-expensive parameters":
// Angular Second Moment, Correlation, Sum of Squares, and Inverse
// Difference Moment.
func PaperSet() []Feature {
	return []Feature{ASM, Correlation, Variance, IDM}
}

// need describes which intermediate quantities a feature set requires, so
// that the per-cell work scales with the request.
type need struct {
	basic    bool // ASM, IDM, Σij·p
	entropy  bool // −Σ p·log p (f9, f12, f13): the only per-cell math.Log
	marginal bool // px, py (correlation, variance, f12–f14)
	sumDiff  bool // p_{x+y}, p_{x−y} histograms (f2, f6–f8, f10, f11)
	hxy      bool // second pass for HXY1/HXY2 (f12, f13)
	q        bool // Q-matrix eigenproblem (f14)
}

func analyze(req []Feature) need {
	var n need
	for _, f := range req {
		switch f {
		case ASM, IDM:
			n.basic = true
		case Entropy:
			n.entropy = true
		case Contrast, SumAverage, SumVariance, SumEntropy, DifferenceVariance, DifferenceEntropy:
			n.sumDiff = true
		case Correlation, Variance:
			n.basic = true
			n.marginal = true
		case InfoCorrelation1, InfoCorrelation2:
			n.entropy = true
			n.marginal = true
			n.hxy = true
		case MaxCorrelationCoeff:
			n.marginal = true
			n.q = true
		default:
			panic(fmt.Sprintf("features: invalid feature %d", int(f)))
		}
	}
	return n
}

// acc carries the single-pass accumulations shared by both representations.
type acc struct {
	g       int
	asm     float64
	idm     float64
	entropy float64
	sumIJ   float64 // ΣΣ i·j·p(i,j)
	px, py  []float64
	psum    []float64 // p_{x+y}, index i+j in [0, 2G−2]
	pdiff   []float64 // p_{x−y}, index |i−j| in [0, G−1]
}

func (a *acc) init(g int, n need) {
	a.g = g
	a.asm, a.idm, a.entropy, a.sumIJ = 0, 0, 0, 0
	a.px, a.py, a.psum, a.pdiff = nil, nil, nil, nil
	if n.marginal || n.hxy || n.q {
		a.px = make([]float64, g)
		a.py = make([]float64, g)
	}
	if n.sumDiff {
		a.psum = make([]float64, 2*g-1)
		a.pdiff = make([]float64, g)
	}
}

// reset clears the accumulator for another matrix with the same shape.
func (a *acc) reset() {
	a.asm, a.idm, a.entropy, a.sumIJ = 0, 0, 0, 0
	for i := range a.px {
		a.px[i] = 0
		a.py[i] = 0
	}
	for i := range a.psum {
		a.psum[i] = 0
	}
	for i := range a.pdiff {
		a.pdiff[i] = 0
	}
}

// cell folds one dense cell (i, j) with probability p into the accumulator.
// weight is 1 for a cell visited directly and 2 when a sparse off-diagonal
// entry stands for both mirror cells (every term below is symmetric in i, j).
func (a *acc) cell(i, j int, p, weight float64, n need) {
	wp := weight * p
	if n.basic {
		a.asm += wp * p
		d := i - j
		a.idm += wp / float64(1+d*d)
		a.sumIJ += wp * float64(i) * float64(j)
	}
	if n.entropy {
		a.entropy -= wp * safeLog(p)
	}
	if a.px != nil {
		a.px[i] += p
		a.py[j] += p
		if weight == 2 {
			a.px[j] += p
			a.py[i] += p
		}
	}
	if n.sumDiff {
		a.psum[i+j] += wp
		d := i - j
		if d < 0 {
			d = -d
		}
		a.pdiff[d] += wp
	}
}

func safeLog(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Log(p)
}

// Calculator computes feature vectors from co-occurrence matrices, reusing
// its internal accumulation buffers across matrices. The texture filters
// process tens of thousands of matrices per chunk, so the per-matrix
// allocations of the one-shot FromFull/FromSparse helpers matter; a
// Calculator amortizes them away. Not safe for concurrent use.
type Calculator struct {
	g    int
	req  []Feature
	n    need
	a    acc
	ents []glcm.Entry // FromFull's upper-triangle entry list
	out  []float64
}

// NewCalculator returns a calculator for matrices with g gray levels
// producing the given feature set.
func NewCalculator(g int, req []Feature) *Calculator {
	c := &Calculator{g: g, req: append([]Feature(nil), req...), n: analyze(req)}
	c.a.init(g, c.n)
	c.out = make([]float64, len(req))
	return c
}

// FromFull computes the requested features from a dense matrix, which must
// be symmetric (every glcm.Full is). It gathers the upper triangle into the
// sorted entry list of the sparse form and runs FromSparse's arithmetic on
// it, so a matrix's features do not depend on its representation: full and
// sparse agree bit for bit. With zeroSkip only the non-zero cells are listed
// (the paper's zero test); without it every cell of the triangle is, zeros
// included, so the parameter sums pay for them — the unoptimized baseline,
// whose zero terms leave every sum unchanged. The returned slice is reused by
// the next call; copy it to retain.
func (c *Calculator) FromFull(m *glcm.Full, zeroSkip bool) ([]float64, error) {
	if m.G != c.g {
		return nil, fmt.Errorf("features: matrix has %d gray levels, calculator %d", m.G, c.g)
	}
	g := m.G
	if c.ents == nil {
		n := g * (g + 1) / 2 // the whole triangle, what the list holds without the zero test
		if zeroSkip {
			n = min(n, 4*g) // real matrices are ≈ 1 % non-zero; append grows it otherwise
		}
		c.ents = make([]glcm.Entry, 0, n)
	}
	ents := c.ents[:0]
	for i := 0; i < g; i++ {
		row := m.Counts[i*g : (i+1)*g]
		for j := i; j < g; j++ {
			if cnt := row[j]; cnt != 0 || !zeroSkip {
				ents = append(ents, glcm.Entry{I: uint8(i), J: uint8(j), Count: cnt})
			}
		}
	}
	c.ents = ents
	return c.fromEntries(ents, m.Total)
}

// FromSparse computes the requested features directly from the sparse
// representation with no conversion back to a dense array ("the matrix can
// be processed directly from the sparse form"). The returned slice is
// reused by the next call; copy it to retain.
func (c *Calculator) FromSparse(s *glcm.Sparse) ([]float64, error) {
	if s.G != c.g {
		return nil, fmt.Errorf("features: matrix has %d gray levels, calculator %d", s.G, c.g)
	}
	return c.fromEntries(s.Entries, s.Total)
}

// fromEntries is the one feature arithmetic: the features are a function of
// the (i ≤ j)-sorted upper-triangular entry list and the matrix total, an
// off-diagonal entry standing for both mirror cells with weight 2.
func (c *Calculator) fromEntries(entries []glcm.Entry, total uint64) ([]float64, error) {
	n := c.n
	out := c.out
	for i := range out {
		out[i] = 0
	}
	if total == 0 {
		return out, nil
	}
	a := &c.a
	a.reset()
	inv := 1 / float64(total)
	for _, e := range entries {
		p := float64(e.Count) * inv
		w := 2.0
		if e.I == e.J {
			w = 1.0
		}
		a.cell(int(e.I), int(e.J), p, w, n)
	}
	var hxy1, hxy2 float64
	if n.hxy {
		for _, e := range entries {
			p := float64(e.Count) * inv
			i, j := int(e.I), int(e.J)
			hxy1 -= p * safeLog(a.px[i]*a.py[j])
			if i != j {
				hxy1 -= p * safeLog(a.px[j]*a.py[i])
			}
		}
		hxy2 = hxy2Term(a.px, a.py)
	}
	var lambda2 float64
	if n.q {
		var err error
		lambda2, err = qSecondEigenvalue(func(yield func(i, j int, p float64)) {
			for _, e := range entries {
				if e.Count == 0 {
					continue
				}
				p := float64(e.Count) * inv
				yield(int(e.I), int(e.J), p)
				if e.I != e.J {
					yield(int(e.J), int(e.I), p)
				}
			}
		}, a.px, a.py, c.g)
		if err != nil {
			return nil, err
		}
	}
	finish(a, n, hxy1, hxy2, lambda2, c.req, out)
	return out, nil
}

// hxy2Term computes HXY2 = −ΣΣ px(i)py(j)·log(px(i)py(j)) over the marginal
// support. This term depends only on the marginals, so zero-skip does not
// apply to it.
func hxy2Term(px, py []float64) float64 {
	h := 0.0
	for _, pi := range px {
		if pi == 0 {
			continue
		}
		for _, pj := range py {
			if pj == 0 {
				continue
			}
			q := pi * pj
			h -= q * math.Log(q)
		}
	}
	return h
}

// qSecondEigenvalue computes the second largest eigenvalue of the Q matrix,
// Q(i,j) = Σ_k p(i,k)p(j,k)/(px(i)py(k)), needed by f14. Q is similar to the
// symmetric PSD matrix M = B·Bᵀ with B(i,j) = p(i,j)/√(px(i)·py(j)) (the
// similarity is D^(−1/2)·M·D^(1/2) with D = diag(px)), so its eigenvalues are
// real and computable by the Jacobi solver on M, restricted to the support
// of the marginals. cells must yield every non-zero dense cell exactly once.
func qSecondEigenvalue(cells func(yield func(i, j int, p float64)), px, py []float64, g int) (float64, error) {
	// Map gray levels with non-zero marginal mass to compact indices.
	idx := make([]int, g)
	sup := 0
	for i := 0; i < g; i++ {
		if px[i] > 0 {
			idx[i] = sup
			sup++
		} else {
			idx[i] = -1
		}
	}
	if sup < 2 {
		return 0, nil
	}
	// Build B over the support (for a symmetric GLCM, py has the same
	// support as px).
	b := make([][]float64, sup)
	for i := range b {
		b[i] = make([]float64, sup)
	}
	cells(func(i, j int, p float64) {
		bi, bj := idx[i], idx[j]
		if bi < 0 || bj < 0 {
			return
		}
		b[bi][bj] = p / math.Sqrt(px[i]*py[j])
	})
	m := linalg.NewSym(sup)
	for i := 0; i < sup; i++ {
		for j := i; j < sup; j++ {
			sum := 0.0
			for k := 0; k < sup; k++ {
				sum += b[i][k] * b[j][k]
			}
			m.Set(i, j, sum)
		}
	}
	return linalg.SecondLargestEigenvalue(m)
}

// finish derives the requested feature values from the accumulations.
func finish(a *acc, n need, hxy1, hxy2, lambda2 float64, req []Feature, out []float64) {
	var mux, muy, sigx, sigy float64
	if a.px != nil {
		for i, p := range a.px {
			mux += float64(i) * p
			muy += float64(i) * a.py[i]
		}
		for i, p := range a.px {
			d := float64(i) - mux
			sigx += d * d * p
			d = float64(i) - muy
			sigy += d * d * a.py[i]
		}
		sigx = math.Sqrt(sigx)
		sigy = math.Sqrt(sigy)
	}
	var sumAvg, sumVar, sumEnt, contrast, diffEnt, diffMean, diffVar float64
	if n.sumDiff {
		for k, p := range a.psum {
			sumAvg += float64(k) * p
			sumEnt -= p * safeLog(p)
		}
		for k, p := range a.psum {
			d := float64(k) - sumAvg
			sumVar += d * d * p
		}
		for k, p := range a.pdiff {
			contrast += float64(k*k) * p
			diffEnt -= p * safeLog(p)
			diffMean += float64(k) * p
		}
		for k, p := range a.pdiff {
			d := float64(k) - diffMean
			diffVar += d * d * p
		}
	}
	for o, f := range req {
		switch f {
		case ASM:
			out[o] = a.asm
		case Contrast:
			out[o] = contrast
		case Correlation:
			if sigx > 0 && sigy > 0 {
				out[o] = (a.sumIJ - mux*muy) / (sigx * sigy)
			}
		case Variance:
			// Haralick's f4 with μ the mean of the x-marginal.
			v := 0.0
			for i, p := range a.px {
				d := float64(i) - mux
				v += d * d * p
			}
			out[o] = v
		case IDM:
			out[o] = a.idm
		case SumAverage:
			out[o] = sumAvg
		case SumVariance:
			out[o] = sumVar
		case SumEntropy:
			out[o] = sumEnt
		case Entropy:
			out[o] = a.entropy
		case DifferenceVariance:
			out[o] = diffVar
		case DifferenceEntropy:
			out[o] = diffEnt
		case InfoCorrelation1:
			hx, hy := marginalEntropy(a.px), marginalEntropy(a.py)
			if h := math.Max(hx, hy); h > 0 {
				out[o] = (a.entropy - hxy1) / h
			}
		case InfoCorrelation2:
			d := 1 - math.Exp(-2*(hxy2-a.entropy))
			if d < 0 {
				d = 0 // numerical guard; analytically ≥ 0
			}
			out[o] = math.Sqrt(d)
		case MaxCorrelationCoeff:
			if lambda2 < 0 {
				lambda2 = 0
			}
			out[o] = math.Sqrt(lambda2)
		}
	}
}

func marginalEntropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		h -= v * safeLog(v)
	}
	return h
}

// FromFull is the one-shot convenience form of Calculator.FromFull: it
// computes the requested features from a dense matrix, with zeroSkip
// selecting the paper's zero-test optimization. The result is freshly
// allocated and indexed like req.
func FromFull(m *glcm.Full, req []Feature, zeroSkip bool) ([]float64, error) {
	return NewCalculator(m.G, req).FromFull(m, zeroSkip)
}

// FromSparse is the one-shot convenience form of Calculator.FromSparse.
func FromSparse(s *glcm.Sparse, req []Feature) ([]float64, error) {
	return NewCalculator(s.G, req).FromSparse(s)
}

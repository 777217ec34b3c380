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
	"math/bits"
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

// need describes the work a feature set requires beyond the exact integer
// sums every matrix pays for.
type need struct {
	entropy bool // HXY = −Σ p·log p over the entries (f9, f12, f13): the only per-entry math.Log
	levels  bool // the marginal and C_{x+y} histograms (f8, f12–f14)
	q       bool // Q-matrix eigenproblem (f14)
}

func analyze(req []Feature) need {
	var n need
	for _, f := range req {
		switch f {
		case Entropy:
			n.entropy = true
		case SumEntropy:
			n.levels = true
		case InfoCorrelation1, InfoCorrelation2:
			n.entropy, n.levels = true, true
		case MaxCorrelationCoeff:
			n.levels, n.q = true, true
		default:
			if f < 0 || int(f) >= NumFeatures {
				panic(fmt.Sprintf("features: invalid feature %d", int(f)))
			}
		}
	}
	return n
}

// u128 is an unsigned 128-bit integer: a product of two exact sums.
type u128 struct{ hi, lo uint64 }

func mul(a, b uint64) u128 {
	hi, lo := bits.Mul64(a, b)
	return u128{hi, lo}
}

func (x u128) add(y u128) u128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	return u128{x.hi + y.hi + carry, lo}
}

func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	return u128{x.hi - y.hi - borrow, lo}
}

// quarter returns x/4, which must be exact and below 2⁶⁴.
func (x u128) quarter() uint64 { return x.hi<<62 | x.lo>>2 }

func (x u128) float() float64 { return float64(x.hi)*0x1p64 + float64(x.lo) }

// signed returns x − y, which may be negative, as a float64.
func signed(x, y u128) float64 {
	if x.hi < y.hi || x.hi == y.hi && x.lo < y.lo {
		return -y.sub(x).float()
	}
	return x.sub(y).float()
}

// Calculator computes feature vectors from co-occurrence matrices, reusing
// its scratch across matrices. The texture filters process tens of
// thousands of matrices per chunk, so the per-matrix allocations of the
// one-shot FromFull/FromSparse helpers matter; a Calculator amortizes them
// away. Not safe for concurrent use.
type Calculator struct {
	g    int
	req  []Feature
	n    need
	ents []glcm.Entry // FromFull's upper-triangle entry list
	out  []float64

	// Level histograms of the current matrix's counts, all zero between
	// calls: C_{x−y}(k), and for need.levels the marginal cx(k) and C_{x+y}(k).
	cx, csum, cdiff []uint64

	// f14's scratch: the support's compact indices, B and M = B·Bᵀ.
	qidx []int
	qb   []float64
	qm   linalg.Sym
}

// NewCalculator returns a calculator for matrices with g gray levels
// producing the given feature set.
func NewCalculator(g int, req []Feature) *Calculator {
	c := &Calculator{g: g, req: append([]Feature(nil), req...), n: analyze(req)}
	c.cdiff = make([]uint64, g)
	if c.n.levels {
		c.cx, c.csum = make([]uint64, g), make([]uint64, 2*g-1)
	}
	if c.n.q {
		c.qidx, c.qb, c.qm.Data = make([]int, g), make([]float64, g*g), make([]float64, g*g)
	}
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

// sums are one matrix's exact integer sums over its dense cells C(i, j).
type sums struct {
	a1     uint64 // Σ C·(i+j), C_{x+y}'s first moment: 2·S1
	a2     u128   // Σ C·(i+j)², C_{x+y}'s second moment: 2·(S2 + Σ C·i·j)
	sq     u128   // Σ C²
	dmax   int    // the largest j − i, where C_{x−y} ends
	lo, hi int    // the level range of cx and C_{x+y}, when need.levels filled them
}

// fromEntries is the one feature arithmetic: the features are a function of
// the upper-triangular (i ≤ j) entry list and the matrix total T, an
// off-diagonal entry standing for both mirror cells. One pass of integer
// multiply-adds folds the entries into exact sums — C_{x−y} and the sums
// above — that depend neither on the entries' order nor on zero entries, so
// every representation and every kernel gives the same bits; finish derives
// each parameter from them. T is the dense cells' sum, as every glcm matrix
// keeps it: with counts below 2³² and at most 2¹⁶ cells, T < 2⁴⁸, so every
// sum linear in the counts fits a uint64 except Σ C·(i+j)² (at most
// 510²·T), and every product of two fits 128 bits.
func (c *Calculator) fromEntries(entries []glcm.Entry, total uint64) ([]float64, error) {
	clear(c.out)
	if total == 0 || len(entries) == 0 {
		return c.out, nil
	}
	cdiff := c.cdiff
	var a1, dmax uint64
	var a2, sq u128
	for _, e := range entries {
		i, j, n := uint64(e.I), uint64(e.J), uint64(e.Count)
		wn := 2 * n // the count of the entry's cells: n on the diagonal, 2n off it
		if i == j {
			wn = n
		}
		cdiff[j-i] += wn
		k := wn * (i + j)
		a1 += k
		a2 = a2.add(u128{lo: k * (i + j)})
		sq = sq.add(mul(n, wn))
		dmax = max(dmax, j-i)
	}
	s := sums{a1: a1, a2: a2, sq: sq, dmax: int(dmax)}
	var lambda2 float64
	var err error
	if c.n.levels {
		s.lo, s.hi = c.histograms(entries)
		if c.n.q {
			lambda2, err = c.qSecondEigenvalue(entries, s.lo, s.hi)
		}
	}
	if err == nil {
		c.finish(entries, total, &s, lambda2)
	}
	clear(cdiff[:s.dmax+1])
	if c.n.levels {
		clear(c.cx[s.lo : s.hi+1])
		clear(c.csum[2*s.lo : 2*s.hi+1])
	}
	if err != nil {
		return nil, err
	}
	return c.out, nil
}

// histograms fills the marginal cx(k) = Σ_j C(k, j) — the matrix is
// symmetric, so it is the column marginal too — and C_{x+y}, and returns
// the entries' level range.
func (c *Calculator) histograms(entries []glcm.Entry) (lo, hi int) {
	lo, hi = int(entries[0].I), int(entries[0].J)
	for _, e := range entries {
		i, j, n := int(e.I), int(e.J), uint64(e.Count)
		c.cx[i] += n
		c.csum[i+j] += n
		if i != j {
			c.cx[j] += n
			c.csum[i+j] += n
		}
		lo, hi = min(lo, i), max(hi, j)
	}
	return lo, hi
}

// finish derives the requested parameters from the sums. With D1, D2 the
// moments of C_{x−y}, the marginal's moments are S1 = A1/2 and S2 =
// (A2 + D2)/4, and Σ C·i·j = (A2 − D2)/4. The second moments are exact
// integer numerators over T², each rounded once: variance T·S2 − S1²,
// correlation's covariance T·Σ C·i·j − S1², difference variance T·D2 − D1²
// and sum variance T·A2 − A1². ASM, contrast and sum average are one
// division of an exact sum. IDM and the entropies round per level; HXY and
// f14 are the only float work per entry.
func (c *Calculator) finish(entries []glcm.Entry, total uint64, s *sums, lambda2 float64) {
	cdiff := c.cdiff[:s.dmax+1]
	var d1, d2 uint64
	for d, n := range cdiff {
		d1 += uint64(d) * n
		d2 += uint64(d*d) * n
	}
	t, t2 := float64(total), mul(total, total).float()
	s1 := s.a1 / 2
	s2, sij := s.a2.add(u128{lo: d2}).quarter(), s.a2.sub(u128{lo: d2}).quarter()
	s1s1, tsij := mul(s1, s1), mul(total, sij)
	variance := mul(total, s2).sub(s1s1).float()
	var hxy, hx float64
	if c.n.entropy {
		for _, e := range entries {
			if e.Count != 0 {
				p := float64(e.Count) / t
				w := 2.0
				if e.I == e.J {
					w = 1
				}
				hxy -= w * p * math.Log(p)
			}
		}
		if c.n.levels {
			hx = entropy(c.cx[s.lo:s.hi+1], t)
		}
	}
	for o, f := range c.req {
		var v float64
		switch f {
		case ASM:
			v = s.sq.float() / t2
		case Contrast:
			v = float64(d2) / t
		case Correlation:
			if variance > 0 {
				v = signed(tsij, s1s1) / variance
			}
		case Variance:
			// Haralick's f4 with μ the mean of the marginal.
			v = variance / t2
		case IDM:
			for d, n := range cdiff {
				v += float64(n) / float64(1+d*d)
			}
			v /= t
		case SumAverage:
			v = float64(s.a1) / t
		case SumVariance:
			v = mul(total, s2).add(tsij).sub(s1s1.add(s1s1)).float() * 2 / t2
		case SumEntropy:
			v = entropy(c.csum[2*s.lo:2*s.hi+1], t)
		case Entropy:
			v = hxy
		case DifferenceVariance:
			v = mul(total, d2).sub(mul(d1, d1)).float() / t2
		case DifferenceEntropy:
			v = entropy(cdiff, t)
		case InfoCorrelation1:
			// HXY1 = −Σ p·log(px·py) = HX + HY, and HY = HX for a symmetric matrix.
			if hx > 0 {
				v = (hxy - 2*hx) / hx
			}
		case InfoCorrelation2:
			// HXY2, the entropy of px·py, is HX + HY too.
			v = math.Sqrt(max(0, -math.Expm1(-2*(2*hx-hxy))))
		case MaxCorrelationCoeff:
			v = math.Sqrt(max(0, lambda2))
		}
		c.out[o] = v
	}
}

// entropy returns −Σ p·log p over p = n/t for the non-zero counts n.
func entropy(counts []uint64, t float64) float64 {
	h := 0.0
	for _, n := range counts {
		if n != 0 {
			p := float64(n) / t
			h -= p * math.Log(p)
		}
	}
	return h
}

// qSecondEigenvalue computes the second largest eigenvalue of the Q matrix,
// Q(i,j) = Σ_k p(i,k)p(j,k)/(px(i)py(k)), needed by f14. Q is similar to the
// symmetric PSD matrix M = B·Bᵀ with B(i,j) = p(i,j)/√(px(i)·py(j)) =
// C(i,j)/√(cx(i)·cx(j)) (the similarity is D^(−1/2)·M·D^(1/2) with D =
// diag(px)), so its eigenvalues are real and computable by the Jacobi solver
// on M, restricted to the levels of [lo, hi] with non-zero marginal mass.
func (c *Calculator) qSecondEigenvalue(entries []glcm.Entry, lo, hi int) (float64, error) {
	idx, sup := c.qidx, 0
	for k := lo; k <= hi; k++ {
		idx[k] = -1
		if c.cx[k] != 0 {
			idx[k] = sup
			sup++
		}
	}
	if sup < 2 {
		return 0, nil
	}
	b := c.qb[:sup*sup]
	clear(b)
	for _, e := range entries {
		if e.Count != 0 {
			i, j := int(e.I), int(e.J)
			v := float64(e.Count) / math.Sqrt(float64(c.cx[i])*float64(c.cx[j]))
			b[idx[i]*sup+idx[j]] = v
			b[idx[j]*sup+idx[i]] = v
		}
	}
	m := &c.qm
	m.N, m.Data = sup, m.Data[:sup*sup]
	for i := 0; i < sup; i++ {
		for j := i; j < sup; j++ {
			sum := 0.0
			for k := 0; k < sup; k++ {
				sum += b[i*sup+k] * b[j*sup+k]
			}
			m.Set(i, j, sum)
		}
	}
	return linalg.SecondLargestEigenvalue(m)
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

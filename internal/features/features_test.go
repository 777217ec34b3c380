package features

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"haralick4d/internal/glcm"
	"haralick4d/internal/linalg"
	"haralick4d/internal/synthetic"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// diagonalUniform builds a GLCM concentrated on the diagonal, uniform over k
// gray levels — a perfectly correlated, zero-contrast texture.
func diagonalUniform(g, k int) *glcm.Full {
	m := glcm.NewFull(g)
	for i := 0; i < k; i++ {
		m.Add(uint8(i), uint8(i))
	}
	return m
}

func TestDiagonalUniformAnalytic(t *testing.T) {
	k := 4
	m := diagonalUniform(8, k)
	vals, err := FromFull(m, All(), false)
	if err != nil {
		t.Fatal(err)
	}
	get := func(f Feature) float64 { return vals[int(f)] }

	if !approx(get(ASM), 1.0/float64(k), 1e-12) {
		t.Errorf("ASM = %v, want %v", get(ASM), 1.0/float64(k))
	}
	if !approx(get(Contrast), 0, 1e-12) {
		t.Errorf("Contrast = %v, want 0", get(Contrast))
	}
	if !approx(get(Correlation), 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", get(Correlation))
	}
	if !approx(get(IDM), 1, 1e-12) {
		t.Errorf("IDM = %v, want 1", get(IDM))
	}
	if !approx(get(Entropy), math.Log(float64(k)), 1e-12) {
		t.Errorf("Entropy = %v, want ln %d", get(Entropy), k)
	}
	if !approx(get(MaxCorrelationCoeff), 1, 1e-9) {
		t.Errorf("MCC = %v, want 1", get(MaxCorrelationCoeff))
	}
	// f13 for diagonal-uniform: sqrt(1 − 1/k²).
	want13 := math.Sqrt(1 - 1/float64(k*k))
	if !approx(get(InfoCorrelation2), want13, 1e-12) {
		t.Errorf("f13 = %v, want %v", get(InfoCorrelation2), want13)
	}
	// f12 for diagonal-uniform: (HXY − HXY1)/HX = (ln k − 2 ln k)/ln k = −1.
	if !approx(get(InfoCorrelation1), -1, 1e-12) {
		t.Errorf("f12 = %v, want -1", get(InfoCorrelation1))
	}
}

// independentMatrix builds counts c(i,j) = a(i)·a(j), i.e. p = px·py exactly.
func independentMatrix(a []uint32) *glcm.Full {
	m := glcm.NewFull(len(a))
	var total uint64
	for i := range a {
		for j := range a {
			c := a[i] * a[j]
			m.Counts[i*m.G+j] = c
			total += uint64(c)
		}
	}
	m.Total = total
	return m
}

func TestIndependentMatrixAnalytic(t *testing.T) {
	m := independentMatrix([]uint32{1, 2, 3})
	vals, err := FromFull(m, []Feature{Correlation, InfoCorrelation1, InfoCorrelation2, MaxCorrelationCoeff}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []Feature{Correlation, InfoCorrelation1, InfoCorrelation2, MaxCorrelationCoeff} {
		// MCC is a square root of an eigenvalue, so numerical noise ε in the
		// eigenproblem shows up as √ε; allow the looser tolerance there.
		tol := 1e-9
		if f == MaxCorrelationCoeff {
			tol = 1e-6
		}
		if !approx(vals[i], 0, tol) {
			t.Errorf("%v = %v, want 0 for independent p", f, vals[i])
		}
	}
}

// haralickExample is the 4×4 image example from Haralick 1973 at 0°.
func haralickExample() *glcm.Full {
	img := []uint8{
		0, 0, 1, 1,
		0, 0, 1, 1,
		0, 2, 2, 2,
		2, 2, 3, 3,
	}
	dims := [4]int{4, 4, 1, 1}
	m := glcm.NewFull(4)
	glcm.ComputeFull(img, glcm.Strides(dims), [4]int{}, dims, []glcm.Direction{{1, 0, 0, 0}}, m)
	return m
}

// TestHaralickExampleAgainstDirectFormulas recomputes each feature with a
// direct, structurally different implementation of the textbook formulas
// and compares against both computation paths.
func TestHaralickExampleAgainstDirectFormulas(t *testing.T) {
	m := haralickExample()
	g := m.G
	p := func(i, j int) float64 { return m.P(i, j) }

	px := make([]float64, g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			px[i] += p(i, j)
		}
	}
	var mu, sig float64
	for i := 0; i < g; i++ {
		mu += float64(i) * px[i]
	}
	for i := 0; i < g; i++ {
		sig += (float64(i) - mu) * (float64(i) - mu) * px[i]
	}

	var asm, contrast, idm, entropy, corrNum float64
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := p(i, j)
			asm += v * v
			contrast += float64((i-j)*(i-j)) * v
			idm += v / float64(1+(i-j)*(i-j))
			if v > 0 {
				entropy -= v * math.Log(v)
			}
			corrNum += float64(i)*float64(j)*v - mu*mu*v
		}
	}
	want := map[Feature]float64{
		ASM:      asm,
		Contrast: contrast,
		IDM:      idm,
		Entropy:  entropy,
		Variance: sig,
	}
	if sig > 0 {
		want[Correlation] = corrNum / sig
	}
	// Sanity pin against hand-computed constants from the counts.
	if !approx(asm, 84.0/576.0, 1e-12) {
		t.Fatalf("reference ASM miscomputed: %v", asm)
	}
	if !approx(contrast, 14.0/24.0, 1e-12) {
		t.Fatalf("reference contrast miscomputed: %v", contrast)
	}

	req := []Feature{ASM, Contrast, IDM, Entropy, Variance, Correlation}
	full, err := FromFull(m, req, false)
	if err != nil {
		t.Fatal(err)
	}
	skip, err := FromFull(m, req, true)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FromSparse(m.Sparse(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range req {
		if !approx(full[i], want[f], 1e-12) {
			t.Errorf("FromFull %v = %v, want %v", f, full[i], want[f])
		}
		if !approx(skip[i], want[f], 1e-12) {
			t.Errorf("FromFull(zeroSkip) %v = %v, want %v", f, skip[i], want[f])
		}
		if !approx(sparse[i], want[f], 1e-12) {
			t.Errorf("FromSparse %v = %v, want %v", f, sparse[i], want[f])
		}
	}
}

func randomMatrix(rng *rand.Rand, g, pairs int) *glcm.Full {
	m := glcm.NewFull(g)
	for k := 0; k < pairs; k++ {
		m.Add(uint8(rng.Intn(g)), uint8(rng.Intn(g)))
	}
	return m
}

// Property: all three computation paths (full, full+zero-skip, sparse) agree
// on all fourteen features for random matrices.
func TestPathsAgreeProperty(t *testing.T) {
	f := func(seed int64, pairsRaw uint16, gRaw uint8) bool {
		g := int(gRaw%30) + 2
		pairs := int(pairsRaw%500) + 1
		m := randomMatrix(rand.New(rand.NewSource(seed)), g, pairs)
		a, err1 := FromFull(m, All(), false)
		b, err2 := FromFull(m, All(), true)
		c, err3 := FromSparse(m.Sparse(), All())
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range a {
			scale := math.Max(1, math.Abs(a[i]))
			if math.Abs(a[i]-b[i]) > 1e-10*scale || math.Abs(a[i]-c[i]) > 1e-10*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: feature bounds. ASM ∈ (0,1], entropy ≥ 0, IDM ∈ (0,1],
// correlation ∈ [−1,1], f13 ∈ [0,1], MCC ∈ [0,1] (up to numerical slack).
func TestFeatureBoundsProperty(t *testing.T) {
	f := func(seed int64, pairsRaw uint16) bool {
		m := randomMatrix(rand.New(rand.NewSource(seed)), 16, int(pairsRaw%300)+1)
		v, err := FromFull(m, All(), true)
		if err != nil {
			return false
		}
		eps := 1e-9
		if v[ASM] <= 0 || v[ASM] > 1+eps {
			return false
		}
		if v[Entropy] < -eps {
			return false
		}
		if v[IDM] <= 0 || v[IDM] > 1+eps {
			return false
		}
		if v[Correlation] < -1-eps || v[Correlation] > 1+eps {
			return false
		}
		if v[InfoCorrelation2] < -eps || v[InfoCorrelation2] > 1+eps {
			return false
		}
		if v[MaxCorrelationCoeff] < -eps || v[MaxCorrelationCoeff] > 1+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: ASM, entropy, IDM, contrast are invariant when the ROI's gray
// levels are relabeled by the reversal permutation i → G−1−i (distance-
// preserving), while correlation is also preserved by this particular map.
func TestReversalInvarianceProperty(t *testing.T) {
	f := func(seed int64, pairsRaw uint16) bool {
		g := 12
		rng := rand.New(rand.NewSource(seed))
		pairs := int(pairsRaw%300) + 1
		m := glcm.NewFull(g)
		r := glcm.NewFull(g)
		for k := 0; k < pairs; k++ {
			a, b := uint8(rng.Intn(g)), uint8(rng.Intn(g))
			m.Add(a, b)
			r.Add(uint8(g-1)-a, uint8(g-1)-b)
		}
		req := []Feature{ASM, Entropy, IDM, Contrast, Correlation, MaxCorrelationCoeff}
		v1, err1 := FromFull(m, req, true)
		v2, err2 := FromFull(r, req, true)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range v1 {
			if math.Abs(v1[i]-v2[i]) > 1e-9*math.Max(1, math.Abs(v1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyMatrix(t *testing.T) {
	for _, vals := range [][]float64{
		must(FromFull(glcm.NewFull(8), All(), false)),
		must(FromFull(glcm.NewFull(8), All(), true)),
		must(FromSparse(glcm.NewSparse(8), All())),
	} {
		for i, v := range vals {
			if v != 0 {
				t.Errorf("empty matrix feature %v = %v, want 0", Feature(i), v)
			}
		}
	}
}

func must(v []float64, err error) []float64 {
	if err != nil {
		panic(err)
	}
	return v
}

func TestConstantRegionDegenerate(t *testing.T) {
	// All mass at a single gray level: σ = 0, correlation must be 0, not NaN.
	m := glcm.NewFull(8)
	for k := 0; k < 10; k++ {
		m.Add(3, 3)
	}
	v, err := FromFull(m, All(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %v is %v on constant region", Feature(i), x)
		}
	}
	if v[Correlation] != 0 {
		t.Errorf("Correlation = %v, want 0 on constant region", v[Correlation])
	}
	if v[ASM] != 1 {
		t.Errorf("ASM = %v, want 1 on constant region", v[ASM])
	}
}

func TestFeatureStringParse(t *testing.T) {
	for i := 0; i < NumFeatures; i++ {
		f := Feature(i)
		got, err := Parse(f.String())
		if err != nil || got != f {
			t.Errorf("Parse(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse accepted bogus name")
	}
	if Feature(99).String() != "feature(99)" {
		t.Error("out-of-range String")
	}
}

func TestPaperSet(t *testing.T) {
	ps := PaperSet()
	want := []Feature{ASM, Correlation, Variance, IDM}
	if len(ps) != len(want) {
		t.Fatalf("PaperSet size %d", len(ps))
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("PaperSet[%d] = %v, want %v", i, ps[i], want[i])
		}
	}
}

func TestInvalidFeaturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid feature")
		}
	}()
	_, _ = FromFull(glcm.NewFull(4), []Feature{Feature(42)}, false)
}

// phantom holds the co-occurrence matrices of a paper-shaped scan, built once
// per test binary: a synthetic DCE-MRI phantom requantized to G = 32, the 40
// 4D directions at distance 1 and a 16×16×3×3 ROI, walked by the blocked
// kernel along every eighth raster row of origins, as production walks a row.
var phantom struct {
	once   sync.Once
	full   []*glcm.Full
	sparse []*glcm.Sparse
}

func phantomMatrices() ([]*glcm.Full, []*glcm.Sparse) {
	phantom.once.Do(func() {
		const g = 32
		roi := [4]int{16, 16, 3, 3}
		grid := synthetic.GenerateGrid(synthetic.Config{Dims: [4]int{112, 112, 4, 4}, Seed: 23}, g)
		strides := grid.Strides()
		k := glcm.NewBlocked(g)
		if !k.Plan(strides, roi, glcm.Directions(4, 1), 1, 0) {
			panic("blocked kernel rejects the paper geometry")
		}
		var n [4]int
		for a := range n {
			n[a] = grid.Dims[a] - roi[a] + 1
		}
		k.PlanRows(n[0])
		for t := 0; t < n[3]; t++ {
			for z := 0; z < n[2]; z++ {
				for y := 0; y < n[1]; y += 8 {
					for x := 0; x < n[0]; x++ {
						if x == 0 {
							k.StartRow(grid.Data, y*strides[1]+z*strides[2]+t*strides[3])
						} else {
							k.Step(grid.Data)
						}
						m := glcm.NewFull(g)
						k.SnapshotFull(m)
						phantom.full = append(phantom.full, m)
						phantom.sparse = append(phantom.sparse, m.Sparse())
					}
				}
			}
		}
	})
	return phantom.full, phantom.sparse
}

// The feature micros time the arithmetic alone: one Calculator, reused over
// the phantom's matrices as the texture filters reuse theirs, for the
// paper's four parameters and for all fourteen. One op is one matrix, so
// ns/op and allocs/op are per matrix.
func BenchmarkFromFullNoSkip(b *testing.B)   { benchFeatures(b, "full") }
func BenchmarkFromFullZeroSkip(b *testing.B) { benchFeatures(b, "skip") }
func BenchmarkFromSparse(b *testing.B)       { benchFeatures(b, "sparse") }

func benchFeatures(b *testing.B, mode string) {
	full, sparse := phantomMatrices()
	for _, set := range []struct {
		name string
		req  []Feature
	}{{"paper", PaperSet()}, {"all", All()}} {
		b.Run(set.name, func(b *testing.B) {
			calc := NewCalculator(full[0].G, set.req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(full)
				var err error
				switch mode {
				case "full":
					_, err = calc.FromFull(full[k], false)
				case "skip":
					_, err = calc.FromFull(full[k], true)
				case "sparse":
					_, err = calc.FromSparse(sparse[k])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCalculatorAllocs pins a reused Calculator at zero allocations per
// matrix for all fourteen features, f14's eigenproblem included.
func TestCalculatorAllocs(t *testing.T) {
	_, sparse := phantomMatrices()
	calc := NewCalculator(sparse[0].G, All())
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		must(calc.FromSparse(sparse[k%len(sparse)]))
		k += 7
	})
	if allocs != 0 {
		t.Errorf("FromSparse with all fourteen features: %v allocations per matrix, want 0", allocs)
	}
}

// definition computes all fourteen features of m straight from Haralick's
// definitions, in dense float64 over the full G×G matrix: p, px, py,
// p_{x+y}, p_{x−y}, HXY1 and HXY2 cell by cell, and f14 from the Q matrix
// itself (only when f14 is in req). It shares no arithmetic with the
// Calculator beyond linalg's eigensolver. The second moments use the
// centered two-pass forms, which stay accurate where Σ i·j·p − μx·μy
// cancels. The result is indexed by Feature.
func definition(m *glcm.Full, req []Feature) []float64 {
	g := m.G
	out := make([]float64, NumFeatures)
	if m.Total == 0 {
		return out
	}
	p := make([]float64, g*g)
	for k, c := range m.Counts {
		p[k] = float64(c) / float64(m.Total)
	}
	px, py := make([]float64, g), make([]float64, g)
	psum, pdiff := make([]float64, 2*g-1), make([]float64, g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v := p[i*g+j]
			px[i] += v
			py[j] += v
			psum[i+j] += v
			pdiff[max(i-j, j-i)] += v
		}
	}
	xlogx := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * math.Log(v)
	}
	var mux, muy, vx, vy, hx, hy float64
	for i := 0; i < g; i++ {
		mux += float64(i) * px[i]
		muy += float64(i) * py[i]
		hx -= xlogx(px[i])
		hy -= xlogx(py[i])
	}
	for i := 0; i < g; i++ {
		vx += (float64(i) - mux) * (float64(i) - mux) * px[i]
		vy += (float64(i) - muy) * (float64(i) - muy) * py[i]
	}
	var asm, contrast, cov, idm, hxy, hxy1, hxy2 float64
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			v, d := p[i*g+j], float64(i-j)
			asm += v * v
			contrast += d * d * v
			cov += (float64(i) - mux) * (float64(j) - muy) * v
			idm += v / (1 + d*d)
			hxy -= xlogx(v)
			if v > 0 {
				hxy1 -= v * math.Log(px[i]*py[j])
			}
			hxy2 -= xlogx(px[i] * py[j])
		}
	}
	var sumAvg, sumVar, sumEnt, diffMean, diffVar, diffEnt float64
	for k, v := range psum {
		sumAvg += float64(k) * v
		sumEnt -= xlogx(v)
	}
	for k, v := range psum {
		sumVar += (float64(k) - sumAvg) * (float64(k) - sumAvg) * v
	}
	for k, v := range pdiff {
		diffMean += float64(k) * v
		diffEnt -= xlogx(v)
	}
	for k, v := range pdiff {
		diffVar += (float64(k) - diffMean) * (float64(k) - diffMean) * v
	}
	out[ASM], out[Contrast], out[Variance], out[IDM] = asm, contrast, vx, idm
	if vx > 0 && vy > 0 {
		out[Correlation] = cov / math.Sqrt(vx*vy)
	}
	out[SumAverage], out[SumVariance], out[SumEntropy], out[Entropy] = sumAvg, sumVar, sumEnt, hxy
	out[DifferenceVariance], out[DifferenceEntropy] = diffVar, diffEnt
	if h := math.Max(hx, hy); h > 0 {
		out[InfoCorrelation1] = (hxy - hxy1) / h
	}
	out[InfoCorrelation2] = math.Sqrt(math.Max(0, 1-math.Exp(-2*(hxy2-hxy))))
	if slices.Contains(req, MaxCorrelationCoeff) {
		out[MaxCorrelationCoeff] = math.Sqrt(math.Max(0, qLambda2(p, px, py, g)))
	}
	return out
}

// qLambda2 returns the second largest eigenvalue of Haralick's Q(i,j) =
// Σ_k p(i,k)·p(j,k)/(px(i)·py(k)), formed over the full G. Q's rows and
// columns outside the marginal's support are zero, each adding an eigenvalue
// 0; on the support Q is similar to the symmetric S = D^½·Q·D^−½ (D =
// diag(px)), whose eigenvalues the Jacobi solver finds.
func qLambda2(p, px, py []float64, g int) float64 {
	q := make([]float64, g*g)
	for i := 0; i < g; i++ {
		for k := 0; k < g; k++ {
			if p[i*g+k] == 0 {
				continue
			}
			for j := 0; j < g; j++ {
				q[i*g+j] += p[i*g+k] * p[j*g+k] / (px[i] * py[k])
			}
		}
	}
	var sup []int
	for i := 0; i < g; i++ {
		if px[i] > 0 {
			sup = append(sup, i)
		}
	}
	s := linalg.NewSym(len(sup))
	for a, i := range sup {
		for b, j := range sup[:a+1] {
			sij := math.Sqrt(px[i]) * q[i*g+j] / math.Sqrt(px[j])
			sji := math.Sqrt(px[j]) * q[j*g+i] / math.Sqrt(px[i])
			s.Set(a, b, (sij+sji)/2)
		}
	}
	eig, err := linalg.EigenSym(s)
	if err != nil {
		panic(err)
	}
	eig = append(eig, make([]float64, g-len(sup))...)
	sort.Sort(sort.Reverse(sort.Float64Slice(eig)))
	return eig[1]
}

// checkDefinition compares the three representation routes with the
// definition on the features req: within 1e-12 of the value, or
// absolutely for values below 1, where features that cancel toward 0 (f3,
// f12) carry their terms' absolute rounding. f13 and f14 are square roots
// of quantities that reach 0, where √ turns an absolute rounding ε into √ε,
// so their squares are compared, within 1e-9.
func checkDefinition(t *testing.T, tag string, m *glcm.Full, req []Feature) {
	t.Helper()
	want := definition(m, req)
	calc := NewCalculator(m.G, req)
	for _, path := range []struct {
		name string
		vals func() ([]float64, error)
	}{
		{"full", func() ([]float64, error) { return calc.FromFull(m, false) }},
		{"full+skip", func() ([]float64, error) { return calc.FromFull(m, true) }},
		{"sparse", func() ([]float64, error) { return calc.FromSparse(m.Sparse()) }},
	} {
		got := must(path.vals())
		for o, f := range req {
			g, w, tol := got[o], want[f], 1e-12
			if f == InfoCorrelation2 || f == MaxCorrelationCoeff {
				g, w, tol = g*g, w*w, 1e-9
			}
			if math.Abs(g-w) > tol*math.Max(1, math.Abs(w)) {
				t.Errorf("%s: %s %v = %v, definition %v", tag, path.name, f, got[o], want[f])
			}
		}
	}
}

// maxCells returns a G×G matrix whose listed upper-triangle cells, and their
// mirrors, hold 2³²−1: the largest count a cell can carry.
func maxCells(g int, cells ...[2]int) *glcm.Full {
	m := glcm.NewFull(g)
	for _, c := range cells {
		m.Counts[c[0]*g+c[1]] = math.MaxUint32
		m.Counts[c[1]*g+c[0]] = math.MaxUint32
	}
	for _, c := range m.Counts {
		m.Total += uint64(c)
	}
	return m
}

// TestAllFeaturesAgainstDefinition checks all fourteen features on every
// route against the dense float64 definition: seeded random matrices at each
// G class, a constant region (where ASM is exactly 1), a single mirror pair,
// and cells at the largest count, which pin the integer sums' overflow
// bound. A dense matrix of them is the largest total a matrix can have; at
// G = 256 it is checked on the parameters of the integer sums only, because
// its HXY sums 32 896 equal terms, whose summation order alone moves f12
// by 10⁻¹², where the definition's cell-by-cell HXY1 cancels exactly.
func TestAllFeaturesAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []int{2, 8, 32, 256} {
		check := func(tag string, m *glcm.Full) { checkDefinition(t, fmt.Sprintf("G=%d %s", g, tag), m, All()) }
		sizes := []int{1, 5, 60, 400}
		if g == 256 {
			sizes = sizes[:3] // 400 pairs make four 200-level eigenproblems: a minute under -race
		}
		for _, pairs := range sizes {
			check(fmt.Sprintf("%d pairs", pairs), randomMatrix(rng, g, pairs))
		}
		constant := glcm.NewFull(g)
		for k := 0; k < 7; k++ {
			constant.Add(uint8(g/2), uint8(g/2))
		}
		check("constant", constant)
		for _, v := range [][]float64{must(FromFull(constant, All(), false)), must(FromSparse(constant.Sparse(), All()))} {
			if v[ASM] != 1 {
				t.Errorf("G=%d constant region: ASM = %v, want exactly 1", g, v[ASM])
			}
		}
		pair := glcm.NewFull(g)
		pair.Add(0, uint8(g-1))
		check("mirror pair", pair)
		top := g - 1
		check("max mirror pair", maxCells(g, [2]int{0, top}))
		check("max cells", maxCells(g, [2]int{0, 0}, [2]int{0, top}, [2]int{top / 2, top}, [2]int{top, top}))
		var all [][2]int
		for i := 0; i < g; i++ {
			for j := i; j < g; j++ {
				all = append(all, [2]int{i, j})
			}
		}
		dense := maxCells(g, all...)
		if g < 256 {
			check("dense max", dense)
		} else {
			checkDefinition(t, "G=256 dense max", dense, []Feature{ASM, Contrast, Correlation, Variance, SumAverage, SumVariance, DifferenceVariance})
		}
	}
}

// checkRepresentations asserts that the three routes to a matrix's features
// — FromFull with and without the zero test, FromSparse on the sparse form —
// agree bit for bit on all fourteen: the features are a function of the
// sorted upper-triangular entry list, not of the representation.
func checkRepresentations(t *testing.T, tag string, m *glcm.Full) {
	t.Helper()
	req := All()
	if testing.Short() && m.G == 256 && m.NonZero() > 1000 {
		req = req[:MaxCorrelationCoeff] // three 256×256 eigenproblems: minutes under -race
	}
	calc := NewCalculator(m.G, req)
	skip := append([]float64(nil), must(calc.FromFull(m, true))...)
	noSkip := append([]float64(nil), must(calc.FromFull(m, false))...)
	sparse := must(calc.FromSparse(m.Sparse()))
	for i, f := range req {
		if a, b, c := math.Float64bits(skip[i]), math.Float64bits(noSkip[i]), math.Float64bits(sparse[i]); a != b || a != c {
			t.Errorf("%s: %v differs by representation: full+skip %v, full %v, sparse %v", tag, f, skip[i], noSkip[i], sparse[i])
		}
	}
}

// TestRepresentationsBitIdentical runs checkRepresentations over seeded
// random symmetric matrices at every G class — empty, a single diagonal cell,
// a single mirror pair, sparse, and dense (every cell non-zero).
func TestRepresentationsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range []int{2, 8, 32, 256} {
		checkRepresentations(t, fmt.Sprintf("G=%d empty", g), glcm.NewFull(g))
		one := glcm.NewFull(g)
		one.Add(uint8(g-1), uint8(g-1))
		checkRepresentations(t, fmt.Sprintf("G=%d diagonal cell", g), one)
		pair := glcm.NewFull(g)
		pair.Add(0, uint8(g-1))
		checkRepresentations(t, fmt.Sprintf("G=%d mirror pair", g), pair)
		for _, pairs := range []int{3, 40, 2000} {
			checkRepresentations(t, fmt.Sprintf("G=%d %d pairs", g, pairs), randomMatrix(rng, g, pairs))
		}
		dense := randomMatrix(rng, g, 4*g)
		for i := 0; i < g; i++ {
			for j := i; j < g; j++ {
				dense.Add(uint8(i), uint8(j))
			}
		}
		if dense.Density() != 1 {
			t.Fatalf("G=%d: dense matrix has zero cells", g)
		}
		checkRepresentations(t, fmt.Sprintf("G=%d dense", g), dense)
	}
}

// FuzzFeatureRepresentations builds a symmetric matrix from the payload —
// gray pairs taken two bytes at a time, G from the selector, every count
// then multiplied by 1 + mult·2²⁴ and capped at 2³²−1, so cells reach the
// largest count — checks the three routes bit for bit and compares them
// with the definition.
func FuzzFeatureRepresentations(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{3, 3}, uint8(1), uint8(0))
	f.Add([]byte{0, 7, 7, 0, 2, 5, 5, 5, 1, 6}, uint8(1), uint8(0))
	f.Add([]byte{0, 255, 255, 255, 17, 200, 17, 200, 31, 30}, uint8(3), uint8(0))
	f.Add([]byte{0, 7, 7, 7, 7, 7, 2, 5}, uint8(1), uint8(255))
	f.Add([]byte{0, 255, 255, 255, 255, 255, 40, 41}, uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, gsel, mult uint8) {
		g := []int{2, 8, 32, 256}[int(gsel)%4]
		m := glcm.NewFull(g)
		for i := 0; i+1 < len(raw); i += 2 {
			m.Add(uint8(int(raw[i])%g), uint8(int(raw[i+1])%g))
		}
		m.Total = 0
		for k, c := range m.Counts {
			m.Counts[k] = uint32(min(uint64(c)*(1+uint64(mult)<<24), math.MaxUint32))
			m.Total += uint64(m.Counts[k])
		}
		tag := fmt.Sprintf("G=%d ×%d", g, mult)
		checkRepresentations(t, tag, m)
		checkDefinition(t, tag, m, All())
	})
}

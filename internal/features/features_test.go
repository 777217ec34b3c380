package features

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"haralick4d/internal/glcm"
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

func BenchmarkFromFullNoSkip(b *testing.B)   { benchFeatures(b, "full") }
func BenchmarkFromFullZeroSkip(b *testing.B) { benchFeatures(b, "skip") }
func BenchmarkFromSparse(b *testing.B)       { benchFeatures(b, "sparse") }

func benchFeatures(b *testing.B, mode string) {
	// A sparse-ish matrix typical of a requantized MRI ROI: ~12 distinct
	// gray pairs at G=32.
	rng := rand.New(rand.NewSource(9))
	m := glcm.NewFull(32)
	for k := 0; k < 700; k++ {
		base := rng.Intn(6) + 10
		m.Add(uint8(base), uint8(base+rng.Intn(3)))
	}
	sp := m.Sparse()
	req := PaperSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch mode {
		case "full":
			_, err = FromFull(m, req, false)
		case "skip":
			_, err = FromFull(m, req, true)
		case "sparse":
			_, err = FromSparse(sp, req)
		}
		if err != nil {
			b.Fatal(err)
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
// gray pairs taken two bytes at a time, G from the selector — and checks the
// three routes bit for bit.
func FuzzFeatureRepresentations(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 3}, uint8(1))
	f.Add([]byte{0, 7, 7, 0, 2, 5, 5, 5, 1, 6}, uint8(1))
	f.Add([]byte{0, 255, 255, 255, 17, 200, 17, 200, 31, 30}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, gsel uint8) {
		g := []int{2, 8, 32, 256}[int(gsel)%4]
		m := glcm.NewFull(g)
		for i := 0; i+1 < len(raw); i += 2 {
			m.Add(uint8(int(raw[i])%g), uint8(int(raw[i+1])%g))
		}
		checkRepresentations(t, fmt.Sprintf("G=%d", g), m)
	})
}

package filters

import (
	"bytes"
	"encoding/binary"
	"image/jpeg"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

func TestSplitBoxCoversExactly(t *testing.T) {
	b := volume.BoxAt([4]int{2, 3, 0, 0}, [4]int{10, 4, 2, 2})
	parts := SplitBox(b, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	seen := map[[4]int]bool{}
	for _, p := range parts {
		if !b.ContainsBox(p) {
			t.Fatalf("part %v outside box", p)
		}
		total += p.NumVoxels()
		var q [4]int
		for q[3] = p.Lo[3]; q[3] < p.Hi[3]; q[3]++ {
			for q[2] = p.Lo[2]; q[2] < p.Hi[2]; q[2]++ {
				for q[1] = p.Lo[1]; q[1] < p.Hi[1]; q[1]++ {
					for q[0] = p.Lo[0]; q[0] < p.Hi[0]; q[0]++ {
						if seen[q] {
							t.Fatalf("voxel %v covered twice", q)
						}
						seen[q] = true
					}
				}
			}
		}
	}
	if total != b.NumVoxels() {
		t.Fatalf("parts cover %d voxels, box has %d", total, b.NumVoxels())
	}
}

// Property: SplitBox partitions any box for any n.
func TestSplitBoxProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var shape [4]int
		for k := range shape {
			shape[k] = 1 + rng.Intn(6)
		}
		b := volume.BoxAt([4]int{rng.Intn(3), rng.Intn(3), 0, 0}, shape)
		n := int(nRaw%8) + 1
		parts := SplitBox(b, n)
		total := 0
		for _, p := range parts {
			if p.Empty() || !b.ContainsBox(p) {
				return false
			}
			total += p.NumVoxels()
		}
		return total == b.NumVoxels() && len(parts) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSplitBoxCutsOutermost pins which dimension takes the cut: the
// outermost one with at least n origins, so packets keep whole x rows and
// runs of consecutive y rows; x only when nothing else can, and the longest
// dimension (the slower on ties) when no dimension has n origins.
func TestSplitBoxCutsOutermost(t *testing.T) {
	cases := []struct {
		shape   [4]int
		n       int
		dim     int // the dimension cut
		extents []int
	}{
		{[4]int{97, 97, 4, 4}, 4, 3, []int{1, 1, 1, 1}}, // the paper chunk: four packets of 97×97×4×1
		{[4]int{97, 97, 4, 3}, 4, 2, []int{1, 1, 1, 1}},
		{[4]int{97, 97, 3, 3}, 4, 1, []int{24, 24, 24, 25}},
		{[4]int{97, 3, 2, 2}, 4, 0, []int{24, 24, 24, 25}}, // only x can take four cuts
		{[4]int{3, 3, 2, 2}, 4, 1, []int{1, 1, 1}},         // none can: longest, slower of the tie
		{[4]int{5, 5, 5, 5}, 2, 3, []int{2, 3}},
	}
	for _, c := range cases {
		b := volume.BoxAt([4]int{1, 2, 3, 4}, c.shape)
		parts := SplitBox(b, c.n)
		if len(parts) != len(c.extents) {
			t.Errorf("%v / %d: %d parts, want %d", c.shape, c.n, len(parts), len(c.extents))
			continue
		}
		at := b.Lo[c.dim]
		for i, p := range parts {
			want := b
			want.Lo[c.dim], want.Hi[c.dim] = at, at+c.extents[i]
			at += c.extents[i]
			if p != want {
				t.Errorf("%v / %d: part %d = %v, want %v", c.shape, c.n, i, p, want)
			}
		}
		if at != b.Hi[c.dim] {
			t.Errorf("%v / %d: parts end at %d, box at %d", c.shape, c.n, at, b.Hi[c.dim])
		}
	}
}

func TestSplitBoxDegenerate(t *testing.T) {
	if parts := SplitBox(volume.Box{}, 4); parts != nil {
		t.Errorf("empty box split into %v", parts)
	}
	b := volume.BoxAt([4]int{0, 0, 0, 0}, [4]int{1, 1, 1, 1})
	parts := SplitBox(b, 10)
	if len(parts) != 1 || parts[0] != b {
		t.Errorf("single-voxel split = %v", parts)
	}
	if len(SplitBox(b, 0)) != 1 {
		t.Error("n=0 should clamp to 1")
	}
}

func TestPayloadSizes(t *testing.T) {
	r := volume.NewRegion(volume.BoxAt([4]int{}, [4]int{4, 4, 1, 1}))
	if (&PieceMsg{Region: r}).SizeBytes() <= 16 {
		t.Error("PieceMsg size")
	}
	if (&ChunkMsg{Region: r}).SizeBytes() <= 80 {
		t.Error("ChunkMsg size")
	}
	pm := &ParamMsg{Box: r.Box, Values: make([]float64, 16)}
	if pm.SizeBytes() != 72+128 {
		t.Errorf("ParamMsg size = %d", pm.SizeBytes())
	}
	if pm.Validate() != nil {
		t.Error("valid ParamMsg rejected")
	}
	pm.Values = pm.Values[:3]
	if pm.Validate() == nil {
		t.Error("mismatched ParamMsg accepted")
	}
}

// runGraph executes a tiny one-producer graph feeding the filter under
// test, with an optional downstream collector.
func runSink(t *testing.T, produce func(ctx filter.Context) error, sinkFactory func(int) filter.Filter) error {
	t.Helper()
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter { return filter.Func(produce) }})
	g.AddFilter(filter.FilterSpec{Name: "sink", Copies: 1, New: sinkFactory})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "sink", ToPort: PortIn, Policy: filter.RoundRobin})
	_, err := filter.RunLocal(g, nil)
	return err
}

func TestUSORoundTrip(t *testing.T) {
	dir := t.TempDir()
	outDims := [4]int{4, 4, 2, 2}
	want := volume.NewFloatGrid(outDims)
	rng := rand.New(rand.NewSource(8))
	for i := range want.Data {
		want.Data[i] = rng.NormFloat64()
	}
	err := runSink(t, func(ctx filter.Context) error {
		// Emit the grid as two box portions for two features.
		for _, ft := range []features.Feature{features.ASM, features.Entropy} {
			for _, box := range SplitBox(volume.BoxAt([4]int{}, outDims), 2) {
				vals := make([]float64, 0, box.NumVoxels())
				var p [4]int
				for p[3] = box.Lo[3]; p[3] < box.Hi[3]; p[3]++ {
					for p[2] = box.Lo[2]; p[2] < box.Hi[2]; p[2]++ {
						for p[1] = box.Lo[1]; p[1] < box.Hi[1]; p[1]++ {
							for p[0] = box.Lo[0]; p[0] < box.Hi[0]; p[0]++ {
								vals = append(vals, want.At(p[0], p[1], p[2], p[3]))
							}
						}
					}
				}
				if err := ctx.Send(PortOut, &ParamMsg{Feature: ft, Box: box, Values: vals}); err != nil {
					return err
				}
			}
		}
		return nil
	}, NewUSO(USOConfig{Dir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	grids, err := ReadUSODir(dir, outDims)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 {
		t.Fatalf("read %d features", len(grids))
	}
	for _, ft := range []features.Feature{features.ASM, features.Entropy} {
		g := grids[ft]
		if g == nil {
			t.Fatalf("feature %v missing", ft)
		}
		for i := range want.Data {
			if g.Data[i] != want.Data[i] {
				t.Fatalf("feature %v voxel %d: %v != %v", ft, i, g.Data[i], want.Data[i])
			}
		}
	}
}

// TestUSORecordEncoding: the hand-rolled record encoder writes byte for byte
// what encoding/binary.Write wrote for the same header and values — the
// on-disk format did not move — including NaN payload bits, signed zeros,
// negative coordinates and empty records, and its scratch buffer carries
// nothing over from a longer record to a shorter one.
func TestUSORecordEncoding(t *testing.T) {
	reference := func(ft features.Feature, box volume.Box, values []float64) []byte {
		var b bytes.Buffer
		hdr := make([]int32, 9)
		hdr[0] = int32(ft)
		for k := 0; k < 4; k++ {
			hdr[1+k] = int32(box.Lo[k])
			hdr[5+k] = int32(box.Hi[k])
		}
		if err := binary.Write(&b, binary.LittleEndian, hdr); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(&b, binary.LittleEndian, values); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	rng := rand.New(rand.NewSource(23))
	var scratch []byte
	for rec := 0; rec < 200; rec++ {
		var box volume.Box
		for k := 0; k < 4; k++ {
			box.Lo[k] = rng.Intn(1<<20) - 1<<10
			box.Hi[k] = box.Lo[k] + rng.Intn(40)
		}
		values := make([]float64, rng.Intn(300))
		for i := range values {
			switch rng.Intn(6) {
			case 0:
				values[i] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63())>>12) // NaN with payload
			case 1:
				values[i] = math.Copysign(0, -1)
			case 2:
				values[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				values[i] = math.Float64frombits(rng.Uint64())
			}
		}
		ft := features.Feature(rng.Intn(14))
		var got bytes.Buffer
		if err := writeUSORecord(&got, &scratch, ft, box, values); err != nil {
			t.Fatal(err)
		}
		if want := reference(ft, box, values); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("record %d (%d values): encoders disagree\n got %x\nwant %x", rec, len(values), got.Bytes(), want)
		}
	}
}

func TestReadUSODirErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadUSODir(filepath.Join(dir, "missing"), [4]int{1, 1, 1, 1}); err == nil {
		t.Error("missing dir accepted")
	}
	os.WriteFile(filepath.Join(dir, "uso_bad.bin"), []byte{1, 2, 3, 4, 5}, 0o644)
	if _, err := ReadUSODir(dir, [4]int{1, 1, 1, 1}); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestHICAndJIW(t *testing.T) {
	dir := t.TempDir()
	outDims := [4]int{6, 5, 2, 2}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for _, box := range SplitBox(volume.BoxAt([4]int{}, outDims), 3) {
				vals := make([]float64, box.NumVoxels())
				for i := range vals {
					vals[i] = float64(i)
				}
				if err := ctx.SendTo(PortOut, 0, &ParamMsg{Feature: features.IDM, Box: box, Values: vals}); err != nil {
					return err
				}
			}
			return nil
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "HIC", Copies: 1, New: NewHIC(HICConfig{OutDims: outDims})})
	g.AddFilter(filter.FilterSpec{Name: "JIW", Copies: 1, New: NewJIW(JIWConfig{Dir: dir})})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "HIC", ToPort: PortIn, Policy: filter.Explicit})
	g.Connect(filter.ConnSpec{From: "HIC", FromPort: PortOut, To: "JIW", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err != nil {
		t.Fatal(err)
	}
	// One JPEG per (z, t), decodable, right size.
	count := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img, err := jpeg.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if img.Bounds().Dx() != 6 || img.Bounds().Dy() != 5 {
			t.Fatalf("%s: bounds %v", e.Name(), img.Bounds())
		}
		count++
	}
	if count != 4 {
		t.Fatalf("wrote %d JPEGs, want 4", count)
	}
}

func TestHICIncompleteErrors(t *testing.T) {
	outDims := [4]int{4, 4, 1, 1}
	g := filter.NewGraph()
	g.AddFilter(filter.FilterSpec{Name: "src", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			vals := make([]float64, 4)
			return ctx.SendTo(PortOut, 0, &ParamMsg{Feature: features.ASM,
				Box: volume.BoxAt([4]int{}, [4]int{4, 1, 1, 1}), Values: vals})
		})
	}})
	g.AddFilter(filter.FilterSpec{Name: "HIC", Copies: 1, New: NewHIC(HICConfig{OutDims: outDims})})
	g.AddFilter(filter.FilterSpec{Name: "null", Copies: 1, New: func(int) filter.Filter {
		return filter.Func(func(ctx filter.Context) error {
			for {
				if _, ok := ctx.Recv(); !ok {
					return nil
				}
			}
		})
	}})
	g.Connect(filter.ConnSpec{From: "src", FromPort: PortOut, To: "HIC", ToPort: PortIn, Policy: filter.Explicit})
	g.Connect(filter.ConnSpec{From: "HIC", FromPort: PortOut, To: "null", ToPort: PortIn, Policy: filter.RoundRobin})
	if _, err := filter.RunLocal(g, nil); err == nil {
		t.Error("incomplete HIC assembly not reported")
	}
}

func TestCollectorResults(t *testing.T) {
	outDims := [4]int{3, 3, 1, 1}
	res := NewResults(outDims)
	err := runSink(t, func(ctx filter.Context) error {
		vals := make([]float64, 9)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		return ctx.Send(PortOut, &ParamMsg{Feature: features.Contrast, Box: volume.BoxAt([4]int{}, outDims), Values: vals})
	}, NewCollector(res))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Complete([]features.Feature{features.Contrast}); err != nil {
		t.Fatal(err)
	}
	if err := res.Complete([]features.Feature{features.ASM}); err == nil {
		t.Error("missing feature reported complete")
	}
	g := res.Grid(features.Contrast)
	if g == nil || g.At(2, 2, 0, 0) != 4.0 {
		t.Error("collector grid wrong")
	}
	if res.Grid(features.ASM) != nil {
		t.Error("absent grid not nil")
	}
}

func TestWrongPayloadTypes(t *testing.T) {
	bad := func(ctx filter.Context) error {
		return ctx.Send(PortOut, &ParamMsg{Feature: features.ASM, Box: volume.BoxAt([4]int{}, [4]int{1, 1, 1, 1}), Values: []float64{0}})
	}
	chunker, err := volume.NewChunker([4]int{4, 4, 1, 1}, [4]int{4, 4, 1, 1}, [4]int{2, 2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, sink := range map[string]func(int) filter.Filter{
		"IIC": NewIIC(IICConfig{Chunker: chunker}),
		"HMP": NewHMP(TextureConfig{}),
		"HCC": NewHCC(TextureConfig{}),
		"HPC": NewHPC(TextureConfig{}),
		"JIW": NewJIW(JIWConfig{Dir: t.TempDir()}),
	} {
		if err := runSink(t, bad, sink); err == nil {
			t.Errorf("%s accepted wrong payload type", name)
		}
	}
}

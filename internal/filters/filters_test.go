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

	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/volume"
)

// yRuns cuts b along y into n boxes of whole x rows, as a texture filter's
// portions are cut.
func yRuns(b volume.Box, n int) []volume.Box {
	out := make([]volume.Box, n)
	sy := b.Shape()[1]
	for i := range out {
		out[i] = b
		out[i].Lo[1], out[i].Hi[1] = b.Lo[1]+i*sy/n, b.Lo[1]+(i+1)*sy/n
	}
	return out
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
			for _, box := range yRuns(volume.BoxAt([4]int{}, outDims), 2) {
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
			for _, box := range yRuns(volume.BoxAt([4]int{}, outDims), 3) {
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

package filters

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"haralick4d/internal/filter"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// gobTrip pushes a payload through the gob path (what CodecGob and the
// binary codec's fallback do) and returns the materialized copy.
func gobTrip(t testing.TB, p filter.Payload) filter.Payload {
	t.Helper()
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&p); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out filter.Payload
	if err := gob.NewDecoder(&blob).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// binaryTrip pushes a payload through its registered binary encoding.
func binaryTrip(t testing.TB, p filter.WirePayload, dec filter.WireDecoder) filter.Payload {
	t.Helper()
	out, err := dec(p.AppendWire(nil))
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	return out
}

// wireBytes re-encodes a payload; two payloads with identical wire bytes
// carry identical exported data.
func wireBytes(p filter.Payload) []byte {
	return p.(filter.WirePayload).AppendWire(nil)
}

// checkTrip asserts the binary round trip of p matches the gob round trip
// byte-for-byte (after re-encoding both through the same binary encoder) and
// structurally via eq.
func checkTrip(t *testing.T, name string, p filter.WirePayload, dec filter.WireDecoder, eq func(a, b filter.Payload) bool) {
	t.Helper()
	bin := binaryTrip(t, p, dec)
	viaGob := gobTrip(t, p)
	if !bytes.Equal(wireBytes(bin), wireBytes(p)) {
		t.Fatalf("%s: binary round trip altered the wire bytes", name)
	}
	if !bytes.Equal(wireBytes(viaGob), wireBytes(p)) {
		t.Fatalf("%s: gob round trip and binary encoding disagree", name)
	}
	if !eq(bin, viaGob) {
		t.Fatalf("%s: binary-decoded %+v != gob-decoded %+v", name, bin, viaGob)
	}
}

func eqRegion(a, b *volume.Region) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Box == b.Box && bytes.Equal(a.Data, b.Data)
}

func randRegion(rng *rand.Rand, b volume.Box) *volume.Region {
	r := volume.NewRegion(b)
	for i := range r.Data {
		r.Data[i] = uint8(rng.Intn(256))
	}
	return r
}

func TestWirePieceMsgRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eq := func(a, b filter.Payload) bool {
		x, y := a.(*PieceMsg), b.(*PieceMsg)
		return x.Chunk == y.Chunk && eqRegion(x.Region, y.Region)
	}
	cases := map[string]*PieceMsg{
		"typical": {Chunk: 12, Region: randRegion(rng, volume.Box{Lo: [4]int{2, 3, 4, 5}, Hi: [4]int{9, 8, 6, 7}})},
		// A zero-voxel region: Lo == Hi on one axis, empty data.
		"empty": {Chunk: 0, Region: volume.NewRegion(volume.Box{Lo: [4]int{0, 0, 3, 1}, Hi: [4]int{16, 16, 3, 2}})},
		// A full 256×256 slice window — the largest piece the readers emit.
		"max-size": {Chunk: 999, Region: randRegion(rng, volume.Box{Lo: [4]int{0, 0, 7, 3}, Hi: [4]int{256, 256, 8, 4}})},
	}
	for name, m := range cases {
		checkTrip(t, "PieceMsg/"+name, m, decodePieceMsg, eq)
	}
}

func TestWireChunkMsgRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	eq := func(a, b filter.Payload) bool {
		x, y := a.(*ChunkMsg), b.(*ChunkMsg)
		return x.Chunk == y.Chunk && x.Origins == y.Origins && eqRegion(x.Region, y.Region)
	}
	m := &ChunkMsg{
		Chunk:   4,
		Origins: volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{10, 10, 2, 2}},
		Region:  randRegion(rng, volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{12, 12, 3, 3}}),
	}
	checkTrip(t, "ChunkMsg", m, decodeChunkMsg, eq)
}

func eqSparse(a, b []*glcm.Sparse) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].G != b[i].G || a[i].Total != b[i].Total || len(a[i].Entries) != len(b[i].Entries) {
			return false
		}
		for j := range a[i].Entries {
			if a[i].Entries[j] != b[i].Entries[j] {
				return false
			}
		}
	}
	return true
}

func eqFull(a, b []*glcm.Full) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].G != b[i].G || a[i].Total != b[i].Total || len(a[i].Counts) != len(b[i].Counts) {
			return false
		}
		for j := range a[i].Counts {
			if a[i].Counts[j] != b[i].Counts[j] {
				return false
			}
		}
	}
	return true
}

func TestWireMatrixBatchMsgRoundTrip(t *testing.T) {
	eq := func(a, b filter.Payload) bool {
		x, y := a.(*MatrixBatchMsg), b.(*MatrixBatchMsg)
		return x.Chunk == y.Chunk && x.Origins == y.Origins && x.G == y.G &&
			x.NoSkip == y.NoSkip && eqSparse(x.Sparse, y.Sparse) && eqFull(x.Full, y.Full)
	}
	origins := volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{2, 1, 1, 1}}
	cases := map[string]*MatrixBatchMsg{
		"sparse": {Chunk: 3, Origins: origins, G: 16, Sparse: []*glcm.Sparse{
			{G: 16, Total: 40, Entries: []glcm.Entry{{I: 0, J: 1, Count: 10}, {I: 3, J: 3, Count: 30}}},
			{G: 16, Total: 7, Entries: []glcm.Entry{{I: 15, J: 15, Count: 7}}},
		}},
		"sparse-empty-entries": {Chunk: 1, Origins: origins, G: 8, Sparse: []*glcm.Sparse{
			{G: 8, Total: 0, Entries: nil},
			{G: 8, Total: 3, Entries: []glcm.Entry{{I: 1, J: 2, Count: 3}}},
		}},
		"full-noskip": {Chunk: 9, Origins: origins, G: 4, NoSkip: true, Full: []*glcm.Full{
			{G: 4, Total: 12, Counts: []uint32{0, 1, 2, 3, 0, 0, 1, 1, 0, 0, 0, 4, 0, 0, 0, 0}},
			{G: 4, Total: 1 << 30, Counts: make([]uint32, 16)},
		}},
	}
	for name, m := range cases {
		checkTrip(t, "MatrixBatchMsg/"+name, m, decodeMatrixBatchMsg, eq)
	}
}

func TestWireParamMsgRoundTrip(t *testing.T) {
	eq := func(a, b filter.Payload) bool {
		x, y := a.(*ParamMsg), b.(*ParamMsg)
		if x.Feature != y.Feature || x.Box != y.Box || len(x.Values) != len(y.Values) {
			return false
		}
		for i := range x.Values {
			// Bit-level comparison so NaN and -0 round trips are checked too.
			if math.Float64bits(x.Values[i]) != math.Float64bits(y.Values[i]) {
				return false
			}
		}
		return true
	}
	box := volume.Box{Lo: [4]int{1, 1, 0, 0}, Hi: [4]int{3, 3, 1, 1}}
	cases := map[string]*ParamMsg{
		"typical": {Feature: 5, Box: box, Values: []float64{0.25, -3.5, 1e-300, 7}},
		"specials": {Feature: 13, Box: box,
			Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}},
		"empty": {Feature: 1, Box: volume.Box{Lo: [4]int{2, 2, 2, 2}, Hi: [4]int{2, 2, 2, 2}}, Values: nil},
	}
	for name, m := range cases {
		checkTrip(t, "ParamMsg/"+name, m, decodeParamMsg, eq)
	}
}

// benchPiece is a realistic hot-path message: a 64×64 single-slice window
// piece.
func benchPiece() *PieceMsg {
	rng := rand.New(rand.NewSource(3))
	return &PieceMsg{Chunk: 17, Region: randRegion(rng, volume.Box{Lo: [4]int{0, 0, 2, 1}, Hi: [4]int{64, 64, 3, 2}})}
}

func benchBatch() *MatrixBatchMsg {
	rng := rand.New(rand.NewSource(4))
	m := &MatrixBatchMsg{Chunk: 5, Origins: volume.Box{Lo: [4]int{0, 0, 0, 0}, Hi: [4]int{8, 8, 1, 1}}, G: 16}
	for i := 0; i < 64; i++ {
		s := &glcm.Sparse{G: 16, Total: 200}
		for e := 0; e < 40; e++ {
			s.Entries = append(s.Entries, glcm.Entry{I: uint8(rng.Intn(16)), J: uint8(rng.Intn(16)), Count: uint32(rng.Intn(50) + 1)})
		}
		m.Sparse = append(m.Sparse, s)
	}
	return m
}

// BenchmarkWireEncodePiece and friends measure the binary codec against the
// per-connection gob stream it replaces; the CI io-bench step runs each once
// as a smoke check.
func BenchmarkWireEncodePiece(b *testing.B) {
	m := benchPiece()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendWire(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkGobEncodePiece(b *testing.B) {
	var p filter.Payload = benchPiece()
	var blob bytes.Buffer
	enc := gob.NewEncoder(&blob)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(&p); err != nil {
			b.Fatal(err)
		}
		blob.Reset()
	}
}

func BenchmarkWireDecodePiece(b *testing.B) {
	buf := benchPiece().AppendWire(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodePieceMsg(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeMatrixBatch(b *testing.B) {
	m := benchBatch()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendWire(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkGobEncodeMatrixBatch(b *testing.B) {
	var p filter.Payload = benchBatch()
	var blob bytes.Buffer
	enc := gob.NewEncoder(&blob)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(&p); err != nil {
			b.Fatal(err)
		}
		blob.Reset()
	}
}

// FuzzWireDecoders drives the four registered payload decoders; the first
// byte picks one. Any input decodes to a payload whose SizeBytes is
// computable, or fails with an error — never a panic, and never an
// allocation far beyond the input. The allocation count is process-wide, so
// the bound carries a fixed slack for the fuzz worker's own goroutines.
func FuzzWireDecoders(f *testing.F) {
	decoders := []filter.WireDecoder{decodePieceMsg, decodeChunkMsg, decodeMatrixBatchMsg, decodeParamMsg}
	rng := rand.New(rand.NewSource(5))
	box := volume.Box{Lo: [4]int{1, 1, 0, 0}, Hi: [4]int{3, 3, 1, 1}}
	for i, m := range []filter.WirePayload{
		&PieceMsg{Chunk: 12, Region: randRegion(rng, volume.Box{Lo: [4]int{2, 3, 4, 5}, Hi: [4]int{5, 5, 5, 6}})},
		&ChunkMsg{Chunk: 4, Origins: box, Region: randRegion(rng, box)},
		&MatrixBatchMsg{Chunk: 3, Origins: box, G: 16, Sparse: []*glcm.Sparse{
			{G: 16, Total: 40, Entries: []glcm.Entry{{I: 0, J: 1, Count: 10}, {I: 3, J: 3, Count: 30}}},
		}},
		&ParamMsg{Feature: 5, Box: box, Values: []float64{0.25, -3.5, 1e-300, 7}},
	} {
		f.Add(append([]byte{byte(i)}, m.AppendWire(nil)...))
	}
	f.Add(append([]byte{2}, (&MatrixBatchMsg{G: 2, Full: []*glcm.Full{{G: 2, Total: 3, Counts: []uint32{1, 0, 0, 2}}}}).AppendWire(nil)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		dec, data := decoders[int(in[0])%len(decoders)], in[1:]
		var p filter.Payload
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err = dec(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(in))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(in), n)
		}
		if err == nil {
			_ = p.SizeBytes()
		}
	})
}

package filter

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
)

var errTestTruncated = errors.New("test payload truncated")

// wireTestPayload exercises the registered-payload fast path.
type wireTestPayload struct {
	N    int
	Blob []byte
}

func (p *wireTestPayload) SizeBytes() int { return 8 + len(p.Blob) }
func (p *wireTestPayload) WireID() byte   { return 200 }
func (p *wireTestPayload) AppendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.N))
	buf = binary.AppendUvarint(buf, uint64(len(p.Blob)))
	return append(buf, p.Blob...)
}

// gobOnlyPayload has no wire registration, so it must take the per-message
// gob fallback inside a binary frame.
type gobOnlyPayload struct {
	Name string
	Vals []float64
}

func (p *gobOnlyPayload) SizeBytes() int { return 16 + len(p.Name) + 8*len(p.Vals) }

func init() {
	RegisterWireDecoder(200, func(data []byte) (Payload, error) {
		var p wireTestPayload
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTestTruncated
		}
		p.N = int(v)
		data = data[n:]
		ln, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data[n:])) < ln {
			return nil, errTestTruncated
		}
		data = data[n:]
		p.Blob = append([]byte(nil), data[:ln]...)
		return &p, nil
	})
	gob.Register(&gobOnlyPayload{})
}

// roundTrip pushes env through the binary framing and back.
func roundTrip(t *testing.T, env envelope) envelope {
	t.Helper()
	buf, err := appendEnvelope(nil, &env)
	if err != nil {
		t.Fatalf("appendEnvelope: %v", err)
	}
	var hdr [4]byte
	copy(hdr[:], buf)
	if got, want := int(binaryFrameLen(hdr)), len(buf)-4; got != want {
		t.Fatalf("frame length prefix %d, body is %d bytes", got, want)
	}
	out, err := decodeEnvelope(buf[4:])
	if err != nil {
		t.Fatalf("decodeEnvelope: %v", err)
	}
	return out
}

func TestBinaryEnvelopeRegisteredPayload(t *testing.T) {
	env := envelope{
		FromNode: 3, ToFilter: "IIC", ToCopy: 7, Port: "in",
		Payload: &wireTestPayload{N: 42, Blob: []byte{9, 8, 7, 6, 5}},
	}
	got := roundTrip(t, env)
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, env)
	}
}

func TestBinaryEnvelopeEOS(t *testing.T) {
	env := envelope{FromNode: 1, ToFilter: "sink", ToCopy: 0, Port: "in", EOS: true}
	got := roundTrip(t, env)
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("EOS round trip mismatch:\n got %+v\nwant %+v", got, env)
	}
	if got.Payload != nil {
		t.Fatalf("EOS envelope decoded with payload %T", got.Payload)
	}
}

func TestBinaryEnvelopeGobFallback(t *testing.T) {
	env := envelope{
		FromNode: 0, ToFilter: "JIW", ToCopy: 2, Port: "in",
		Payload: &gobOnlyPayload{Name: "energy", Vals: []float64{1.5, -2.25, 0}},
	}
	got := roundTrip(t, env)
	p, ok := got.Payload.(*gobOnlyPayload)
	if !ok {
		t.Fatalf("fallback payload decoded as %T", got.Payload)
	}
	if !reflect.DeepEqual(p, env.Payload) {
		t.Fatalf("fallback round trip mismatch:\n got %+v\nwant %+v", p, env.Payload)
	}
}

func TestBinaryEnvelopeScratchReuse(t *testing.T) {
	// Consecutive messages through one scratch buffer must not bleed into
	// each other — the tcpConn reuses c.buf exactly this way.
	var buf []byte
	envs := []envelope{
		{FromNode: 1, ToFilter: "a", ToCopy: 0, Port: "in", Payload: &wireTestPayload{N: 1, Blob: []byte{1}}},
		{FromNode: 2, ToFilter: "bb", ToCopy: 1, Port: "in", Payload: &wireTestPayload{N: 2, Blob: []byte{2, 2}}},
		{FromNode: 3, ToFilter: "ccc", ToCopy: 2, Port: "in", EOS: true},
	}
	for _, env := range envs {
		out, err := appendEnvelope(buf[:0], &env)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
		got, err := decodeEnvelope(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("scratch reuse mismatch:\n got %+v\nwant %+v", got, env)
		}
	}
}

func TestBinaryEnvelopeDecodeErrors(t *testing.T) {
	if _, err := decodeEnvelope(nil); err == nil {
		t.Fatal("empty frame decoded")
	}
	// A frame claiming a registered payload with an unknown id.
	env := envelope{FromNode: 0, ToFilter: "x", ToCopy: 0, Port: "in",
		Payload: &wireTestPayload{N: 1}}
	buf, err := appendEnvelope(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), buf[4:]...)
	// The payload here is 2 bytes (N=1, empty blob), so the WireID byte sits
	// 3 bytes from the end of the frame.
	frame[len(frame)-3] = 250 // unregistered id
	if _, err := decodeEnvelope(frame); err == nil || !strings.Contains(err.Error(), "no wire decoder") {
		t.Fatalf("unregistered id error = %v", err)
	}
	// Truncations at every prefix length must error, never panic.
	full := buf[4:]
	for n := 0; n < len(full); n++ {
		if _, err := decodeEnvelope(full[:n]); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded", n)
		}
	}
}

// TestTCPRefusesUnknownCodec: the binary framing is the TCP engine's one
// codec, so any other WireCodec value fails the run before it starts.
func TestTCPRefusesUnknownCodec(t *testing.T) {
	if _, err := RunTCP(NewGraph(), &Options{WireCodec: CodecBinary + 1}); err == nil || !strings.Contains(err.Error(), "wire codec") {
		t.Fatalf("RunTCP with codec 1: %v, want an unknown-codec error", err)
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	fn()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeEnvelope: any frame body decodes to an envelope whose payload
// size is computable, or fails with an error — never a panic, and never an
// allocation far beyond the frame. The fixed slack covers the gob
// fallback's decoder state and the fuzz worker's own goroutines (the
// allocation count is process-wide).
func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range []envelope{
		{FromNode: 1, ToFilter: "HMP", ToCopy: 2, Port: "in", Seq: 9, Payload: &wireTestPayload{N: 7, Blob: []byte("abc")}},
		{FromNode: 3, ToFilter: "OUT", Port: "in", Payload: &gobOnlyPayload{Name: "x", Vals: []float64{1, 2}}},
		{ToFilter: "USO", Port: "in", EOS: true},
	} {
		buf, err := appendEnvelope(nil, &env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var env envelope
		var err error
		if n := allocated(func() { env, err = decodeEnvelope(frame) }); n > 64*uint64(len(frame))+1<<20 {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), n)
		}
		if err == nil && env.Payload != nil {
			_ = env.Payload.SizeBytes()
		}
	})
}

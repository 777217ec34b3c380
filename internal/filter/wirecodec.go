package filter

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
)

// Codec names the serialization of buffers crossing nodes on the TCP
// engine. There is one: CodecBinary.
type Codec int

// CodecBinary frames each envelope with a length prefix and writes the hot
// payload types' backing arrays directly (see WirePayload). Payload types
// without a registered binary encoding fall back to a per-message gob blob
// inside the frame, so the codec is transparent to new types.
const CodecBinary Codec = 0

// WirePayload is implemented by payload types carrying their own binary
// encoding. WireID identifies the type on the wire (one
// byte, process-wide unique, stable across both ends of a run); AppendWire
// appends the encoded payload to buf and returns the extended slice,
// writing backing arrays with bulk appends rather than per-element
// reflection.
type WirePayload interface {
	Payload
	WireID() byte
	AppendWire(buf []byte) []byte
}

// WireDecoder decodes one payload previously produced by AppendWire. The
// input slice is only valid during the call; implementations copy what they
// keep.
type WireDecoder func(data []byte) (Payload, error)

var wireDecoders [256]WireDecoder

// RegisterWireDecoder installs the decoder for one WireID. Payload packages
// call it from init(), mirroring gob.Register; registering the same id
// twice panics, catching accidental collisions early.
func RegisterWireDecoder(id byte, dec WireDecoder) {
	if wireDecoders[id] != nil {
		panic(fmt.Sprintf("filter: wire id %d registered twice", id))
	}
	wireDecoders[id] = dec
}

// Binary envelope framing: a u32 little-endian frame length followed by
//
//	flags    byte (EOS, payload present, payload is a gob blob)
//	FromNode uvarint
//	ToCopy   uvarint
//	Seq      uvarint (0 when duplicate suppression is off)
//	ToFilter uvarint length + bytes
//	Port     uvarint length + bytes
//	payload  WireID byte + AppendWire bytes, or a self-describing gob blob
const (
	flagEOS        = 1 << 0
	flagHasPayload = 1 << 1
	flagGobPayload = 1 << 2
)

// maxWireFrame bounds a frame so a corrupted or misaligned length prefix
// fails fast instead of attempting a multi-gigabyte allocation.
const maxWireFrame = 1 << 30

// binaryFrameLen extracts the frame length from the 4-byte prefix.
func binaryFrameLen(hdr [4]byte) uint32 { return binary.LittleEndian.Uint32(hdr[:]) }

// appendEnvelope encodes env after a 4-byte length placeholder and patches
// the length in, returning the extended buffer.
func appendEnvelope(buf []byte, env *envelope) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length patched below
	flags := byte(0)
	if env.EOS {
		flags |= flagEOS
	}
	wp, isWire := env.Payload.(WirePayload)
	if env.Payload != nil {
		flags |= flagHasPayload
		if !isWire {
			flags |= flagGobPayload
		}
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(env.FromNode))
	buf = binary.AppendUvarint(buf, uint64(env.ToCopy))
	buf = binary.AppendUvarint(buf, env.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(env.ToFilter)))
	buf = append(buf, env.ToFilter...)
	buf = binary.AppendUvarint(buf, uint64(len(env.Port)))
	buf = append(buf, env.Port...)
	switch {
	case isWire:
		buf = append(buf, wp.WireID())
		buf = wp.AppendWire(buf)
	case env.Payload != nil:
		// Transparent fallback for unregistered types: a self-describing
		// per-message gob blob (fresh encoder, so each message carries its
		// own type description — the price of not registering).
		var blob bytes.Buffer
		enc := gob.NewEncoder(&blob)
		if err := enc.Encode(&env.Payload); err != nil {
			return nil, fmt.Errorf("filter: wire gob fallback for %T: %w", env.Payload, err)
		}
		buf = append(buf, blob.Bytes()...)
	}
	n := len(buf) - start - 4
	if n > maxWireFrame {
		return nil, fmt.Errorf("filter: wire frame of %d bytes exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// decodeEnvelope parses one frame body (the bytes after the length prefix).
func decodeEnvelope(frame []byte) (envelope, error) {
	var env envelope
	if len(frame) < 1 {
		return env, fmt.Errorf("filter: empty wire frame")
	}
	flags := frame[0]
	rest := frame[1:]
	env.EOS = flags&flagEOS != 0
	u := func(field string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("filter: wire frame truncated at %s", field)
		}
		rest = rest[n:]
		return v, nil
	}
	str := func(field string) (string, error) {
		n, err := u(field)
		if err != nil {
			return "", err
		}
		if uint64(len(rest)) < n {
			return "", fmt.Errorf("filter: wire frame truncated in %s", field)
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	from, err := u("FromNode")
	if err != nil {
		return env, err
	}
	toCopy, err := u("ToCopy")
	if err != nil {
		return env, err
	}
	env.FromNode, env.ToCopy = int(from), int(toCopy)
	if env.Seq, err = u("Seq"); err != nil {
		return env, err
	}
	if env.ToFilter, err = str("ToFilter"); err != nil {
		return env, err
	}
	if env.Port, err = str("Port"); err != nil {
		return env, err
	}
	if flags&flagHasPayload == 0 {
		return env, nil
	}
	if flags&flagGobPayload != 0 {
		if !gobFits(rest) {
			return env, fmt.Errorf("filter: wire gob fallback: message length exceeds the frame")
		}
		dec := gob.NewDecoder(bytes.NewReader(rest))
		if err := dec.Decode(&env.Payload); err != nil {
			return env, fmt.Errorf("filter: wire gob fallback decode: %w", err)
		}
		return env, nil
	}
	if len(rest) < 1 {
		return env, fmt.Errorf("filter: wire frame truncated at payload id")
	}
	id := rest[0]
	dec := wireDecoders[id]
	if dec == nil {
		return env, fmt.Errorf("filter: no wire decoder registered for id %d", id)
	}
	p, err := dec(rest[1:])
	if err != nil {
		return env, fmt.Errorf("filter: wire payload id %d: %w", id, err)
	}
	env.Payload = p
	return env, nil
}

// gobFits reports whether every message of the gob stream b fits in b. The
// gob decoder sizes a message's buffer from its length prefix before reading
// it, so an unchecked prefix would let a few bytes claim gigabytes.
func gobFits(b []byte) bool {
	for len(b) > 0 {
		n := uint64(b[0])
		b = b[1:]
		if n >= 0x80 { // the negated count of big-endian length bytes
			k := 256 - int(n)
			if k > 8 || k > len(b) {
				return false
			}
			n = 0
			for _, c := range b[:k] {
				n = n<<8 | uint64(c)
			}
			b = b[k:]
		}
		if n > uint64(len(b)) {
			return false
		}
		b = b[n:]
	}
	return true
}

package dicom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func testImage(seed int64, cols, rows int) *Image {
	rng := rand.New(rand.NewSource(seed))
	img := &Image{
		Rows: rows, Cols: cols,
		Pixels:         make([]byte, 2*rows*cols),
		InstanceNumber: 17,
		Acquisition:    3,
		SliceLocation:  5,
		WindowCenter:   2048,
		WindowWidth:    4096,
	}
	rng.Read(img.Pixels)
	return img
}

func encode(t testing.TB, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := testImage(1, 13, 9) // odd sizes exercise padding
	got, err := Decode(encode(t, img))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != img.Rows || got.Cols != img.Cols ||
		got.InstanceNumber != img.InstanceNumber || got.Acquisition != img.Acquisition ||
		got.SliceLocation != img.SliceLocation ||
		got.WindowCenter != img.WindowCenter || got.WindowWidth != img.WindowWidth {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, img)
	}
	if !bytes.Equal(got.Pixels, img.Pixels) {
		t.Fatal("pixel bytes differ")
	}
}

// Property: encode/decode round-trips arbitrary geometries and pixel
// contents, and every encoded header fits the readers' allowance.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, colsRaw, rowsRaw uint8) bool {
		cols := int(colsRaw%40) + 1
		rows := int(rowsRaw%40) + 1
		img := testImage(seed, cols, rows)
		var buf bytes.Buffer
		if Encode(&buf, img) != nil || buf.Len() > 2*rows*cols+HeaderAllowance {
			return false
		}
		got, err := Decode(buf.Bytes())
		if err != nil {
			return false
		}
		return got.Rows == rows && got.Cols == cols && bytes.Equal(got.Pixels, img.Pixels)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"short":     make([]byte, 64),
		"bad magic": append(make([]byte, 128), []byte("NOPE")...),
		"no meta":   append(make([]byte, 128), []byte("DICM")...),
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestDecodeRejectsWrongSyntax(t *testing.T) {
	raw := encode(t, testImage(3, 8, 8))
	// Corrupt the transfer syntax UID in place.
	i := bytes.Index(raw, []byte(ExplicitVRLittleEndian))
	if i < 0 {
		t.Fatal("syntax UID not found")
	}
	raw[i+len(ExplicitVRLittleEndian)-1] = '9'
	if _, err := Decode(raw); err == nil || !strings.Contains(err.Error(), "transfer syntax") {
		t.Errorf("wrong syntax accepted: %v", err)
	}
}

func TestDecodeTruncatedPixelData(t *testing.T) {
	raw := encode(t, testImage(4, 16, 16))
	if _, err := Decode(raw[:len(raw)-40]); !errors.Is(err, ErrFormat) {
		t.Errorf("truncated pixel data: err = %v, want ErrFormat", err)
	}
}

// hugeClaim is a 338-byte object whose pixel element claims 1 GiB: the
// header of a 16×16 image, cut after the pixel element's length field,
// with that field rewritten.
func hugeClaim(t testing.TB) []byte {
	raw := encode(t, testImage(5, 16, 16))
	head := raw[:len(raw)-2*16*16]
	binary.LittleEndian.PutUint32(head[len(head)-4:], 1<<30)
	return head
}

// TestDecodeHugeClaimAllocatesLittle pins the length check: an element's
// claimed length is checked against the bytes that exist before anything is
// allocated, so a tiny remote object cannot make a reader allocate 1 GiB.
func TestDecodeHugeClaimAllocatesLittle(t *testing.T) {
	in := hugeClaim(t)
	if len(in) != 338 {
		t.Fatalf("input is %d bytes, want 338", len(in))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(in)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "claims 1073741824 bytes") {
		t.Errorf("err = %v, want the pixel element's claim rejected", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding a %d-byte object allocated %d bytes", len(in), got)
	}
}

// FuzzDecode: any input decodes to an image whose pixel bytes match its
// geometry, or fails with ErrFormat; never a panic.
func FuzzDecode(f *testing.F) {
	f.Add(encode(f, testImage(6, 3, 2)))
	f.Add(encode(f, testImage(7, 1, 1)))
	f.Add(hugeClaim(f))
	f.Add(append(make([]byte, 128), []byte("DICM")...))
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if img.Rows < 1 || img.Cols < 1 || len(img.Pixels) != 2*img.Rows*img.Cols {
			t.Fatalf("decoded %dx%d with %d pixel bytes", img.Cols, img.Rows, len(img.Pixels))
		}
	})
}

func TestEncodeRejectsBadGeometry(t *testing.T) {
	for _, img := range []*Image{
		{Rows: 4, Cols: 4, Pixels: make([]byte, 30)},
		{Rows: 1 << 16, Cols: 1, Pixels: make([]byte, 2<<16)},
	} {
		if err := Encode(&bytes.Buffer{}, img); err == nil {
			t.Errorf("%dx%d with %d pixel bytes accepted", img.Cols, img.Rows, len(img.Pixels))
		}
	}
}

func TestTagString(t *testing.T) {
	if TagPixelData.String() != "(7FE0,0010)" {
		t.Errorf("Tag.String = %s", TagPixelData.String())
	}
}

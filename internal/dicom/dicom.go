// Package dicom implements the DICOM slice encoding of the dataset layout:
// one Part-10 object per 2D slice, the paper's named extension point ("the
// filter developed to read raw DCE-MRI data may be easily replaced by a
// filter which reads DICOM format images", §4.3). The dataset package
// stores and reads these objects through the same backends, node indexes
// and checksums as raw slices; this package only encodes and decodes one
// object.
//
// Supported: DICOM Part 10 files (preamble + DICM magic + file meta group)
// holding a single-frame monochrome image in the Explicit VR Little Endian
// transfer syntax (UID 1.2.840.10008.1.2.1) with 16-bit unsigned pixels.
// Anything else is rejected with a descriptive error. This is a clean-room
// implementation of exactly the subset the pipeline produces and consumes;
// it is not a general DICOM toolkit.
package dicom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ExplicitVRLittleEndian is the only transfer syntax this package handles.
const ExplicitVRLittleEndian = "1.2.840.10008.1.2.1"

// HeaderAllowance bounds the bytes an encoded slice carries besides its
// pixel data. A reader sizes its one read of a slice to 2·Rows·Cols plus
// this, and an object that does not end inside that read is not a slice of
// the expected geometry. Encode's own header stays under 400 bytes.
const HeaderAllowance = 1024

// ErrFormat marks every Decode failure: the bytes are not a Part-10 object
// of the supported subset, or they are cut short.
var ErrFormat = errors.New("dicom: malformed object")

// formatErrf builds an ErrFormat-wrapped error.
func formatErrf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
}

// Tag identifies a DICOM data element (group, element).
type Tag struct{ Group, Element uint16 }

// The tags the slice encoding writes and reads.
var (
	TagFileMetaLength  = Tag{0x0002, 0x0000}
	TagTransferSyntax  = Tag{0x0002, 0x0010}
	TagModality        = Tag{0x0008, 0x0060}
	TagInstanceNumber  = Tag{0x0020, 0x0013}
	TagAcquisitionNum  = Tag{0x0020, 0x0012}
	TagSliceLocation   = Tag{0x0020, 0x1041}
	TagSamplesPerPixel = Tag{0x0028, 0x0002}
	TagPhotometric     = Tag{0x0028, 0x0004}
	TagRows            = Tag{0x0028, 0x0010}
	TagColumns         = Tag{0x0028, 0x0011}
	TagBitsAllocated   = Tag{0x0028, 0x0100}
	TagBitsStored      = Tag{0x0028, 0x0101}
	TagHighBit         = Tag{0x0028, 0x0102}
	TagPixelRep        = Tag{0x0028, 0x0103}
	TagWindowCenter    = Tag{0x0028, 0x1050}
	TagWindowWidth     = Tag{0x0028, 0x1051}
	TagPixelData       = Tag{0x7FE0, 0x0010}
)

// String formats the tag in the conventional (gggg,eeee) form.
func (t Tag) String() string { return fmt.Sprintf("(%04X,%04X)", t.Group, t.Element) }

// Element is one decoded data element. Decode's elements alias the bytes
// they were decoded from.
type Element struct {
	Tag   Tag
	VR    string
	Value []byte
}

// Uint16 decodes a US value.
func (e *Element) Uint16() (uint16, error) {
	if len(e.Value) < 2 {
		return 0, formatErrf("element %v too short for US", e.Tag)
	}
	return binary.LittleEndian.Uint16(e.Value), nil
}

// Int decodes an IS (integer string) value.
func (e *Element) Int() (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(string(e.Value)))
	if err != nil {
		return 0, formatErrf("element %v: %w", e.Tag, err)
	}
	return v, nil
}

// Float decodes a DS (decimal string) value.
func (e *Element) Float() (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(string(e.Value)), 64)
	if err != nil {
		return 0, formatErrf("element %v: %w", e.Tag, err)
	}
	return v, nil
}

// Text decodes a string value with padding stripped.
func (e *Element) Text() string { return strings.TrimRight(string(e.Value), " \x00") }

// longVRs need a 4-byte length preceded by 2 reserved bytes in explicit VR.
var longVRs = map[string]bool{"OB": true, "OW": true, "OF": true, "SQ": true, "UT": true, "UN": true}

// writeElement encodes one element in Explicit VR Little Endian.
func writeElement(w io.Writer, e Element) error {
	// Text VRs are padded to even length per the standard.
	val := e.Value
	if len(val)%2 == 1 {
		pad := byte(' ')
		if e.VR == "OB" || e.VR == "OW" || e.VR == "UI" {
			pad = 0
		}
		val = append(append([]byte{}, val...), pad)
	}
	var hdr bytes.Buffer
	binary.Write(&hdr, binary.LittleEndian, e.Tag.Group)
	binary.Write(&hdr, binary.LittleEndian, e.Tag.Element)
	if len(e.VR) != 2 {
		return fmt.Errorf("dicom: element %v has invalid VR %q", e.Tag, e.VR)
	}
	hdr.WriteString(e.VR)
	if longVRs[e.VR] {
		hdr.Write([]byte{0, 0})
		if len(val) > math.MaxUint32 {
			return fmt.Errorf("dicom: element %v too large", e.Tag)
		}
		binary.Write(&hdr, binary.LittleEndian, uint32(len(val)))
	} else {
		if len(val) > math.MaxUint16 {
			return fmt.Errorf("dicom: element %v too large for short VR", e.Tag)
		}
		binary.Write(&hdr, binary.LittleEndian, uint16(len(val)))
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(val)
	return err
}

// elements walks Explicit VR Little Endian elements over b. Every length is
// checked against the bytes left before it is used, and every value is a
// subslice of b: a claimed length costs nothing until bytes back it.
type elements struct{ b []byte }

// next decodes the next element; io.EOF reports a clean end.
func (p *elements) next() (Element, error) {
	if len(p.b) == 0 {
		return Element{}, io.EOF
	}
	if len(p.b) < 8 {
		return Element{}, formatErrf("truncated element header (%d bytes)", len(p.b))
	}
	e := Element{
		Tag: Tag{binary.LittleEndian.Uint16(p.b[0:2]), binary.LittleEndian.Uint16(p.b[2:4])},
		VR:  string(p.b[4:6]),
	}
	if !vrPlausible(e.VR) {
		return Element{}, formatErrf("element %v has implausible VR %q (implicit VR unsupported)", e.Tag, e.VR)
	}
	head, length := 8, uint64(binary.LittleEndian.Uint16(p.b[6:8]))
	if longVRs[e.VR] {
		if len(p.b) < 12 {
			return Element{}, formatErrf("truncated element %v", e.Tag)
		}
		head, length = 12, uint64(binary.LittleEndian.Uint32(p.b[8:12]))
		if length == 0xFFFFFFFF {
			return Element{}, formatErrf("element %v has undefined length (sequences unsupported)", e.Tag)
		}
	}
	if left := uint64(len(p.b) - head); length > left {
		return Element{}, formatErrf("element %v claims %d bytes, %d left", e.Tag, length, left)
	}
	end := head + int(length)
	e.Value = p.b[head:end:end]
	p.b = p.b[end:]
	return e, nil
}

func vrPlausible(vr string) bool {
	for i := 0; i < 2; i++ {
		if vr[i] < 'A' || vr[i] > 'Z' {
			return false
		}
	}
	return true
}

// Image is one single-frame monochrome DICOM image plus the metadata the
// pipeline writes.
type Image struct {
	Rows, Cols     int
	Pixels         []byte  // Rows·Cols little-endian uint16 values, row-major, Cols fastest
	InstanceNumber int     // global slice id
	Acquisition    int     // time step t
	SliceLocation  float64 // slice index z
	WindowCenter   float64
	WindowWidth    float64
}

// preambleLen is the Part 10 preamble size.
const preambleLen = 128

var dicmMagic = []byte("DICM")

// Encode writes the image as a DICOM Part 10 file body.
func Encode(w io.Writer, img *Image) error {
	if img.Rows < 1 || img.Cols < 1 || img.Rows > math.MaxUint16 || img.Cols > math.MaxUint16 ||
		len(img.Pixels) != 2*img.Rows*img.Cols {
		return fmt.Errorf("dicom: image geometry %dx%d does not match %d pixel bytes", img.Cols, img.Rows, len(img.Pixels))
	}
	if _, err := w.Write(make([]byte, preambleLen)); err != nil {
		return err
	}
	if _, err := w.Write(dicmMagic); err != nil {
		return err
	}
	// File meta group: group length first, computed over the following
	// meta elements.
	var meta bytes.Buffer
	if err := writeElement(&meta, Element{Tag: TagTransferSyntax, VR: "UI", Value: []byte(ExplicitVRLittleEndian)}); err != nil {
		return err
	}
	lenBuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(lenBuf, uint32(meta.Len()))
	if err := writeElement(w, Element{Tag: TagFileMetaLength, VR: "UL", Value: lenBuf}); err != nil {
		return err
	}
	if _, err := w.Write(meta.Bytes()); err != nil {
		return err
	}

	us := func(v uint16) []byte {
		b := make([]byte, 2)
		binary.LittleEndian.PutUint16(b, v)
		return b
	}
	ds := func(v float64) []byte { return []byte(strconv.FormatFloat(v, 'f', -1, 64)) }
	is := func(v int) []byte { return []byte(strconv.Itoa(v)) }

	// Dataset elements must appear in ascending tag order.
	elems := []Element{
		{Tag: TagModality, VR: "CS", Value: []byte("MR")},
		{Tag: TagAcquisitionNum, VR: "IS", Value: is(img.Acquisition)},
		{Tag: TagInstanceNumber, VR: "IS", Value: is(img.InstanceNumber)},
		{Tag: TagSliceLocation, VR: "DS", Value: ds(img.SliceLocation)},
		{Tag: TagSamplesPerPixel, VR: "US", Value: us(1)},
		{Tag: TagPhotometric, VR: "CS", Value: []byte("MONOCHROME2")},
		{Tag: TagRows, VR: "US", Value: us(uint16(img.Rows))},
		{Tag: TagColumns, VR: "US", Value: us(uint16(img.Cols))},
		{Tag: TagBitsAllocated, VR: "US", Value: us(16)},
		{Tag: TagBitsStored, VR: "US", Value: us(16)},
		{Tag: TagHighBit, VR: "US", Value: us(15)},
		{Tag: TagPixelRep, VR: "US", Value: us(0)},
		{Tag: TagWindowCenter, VR: "DS", Value: ds(img.WindowCenter)},
		{Tag: TagWindowWidth, VR: "DS", Value: ds(img.WindowWidth)},
		{Tag: TagPixelData, VR: "OW", Value: img.Pixels},
	}
	for _, e := range elems {
		if err := writeElement(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses one DICOM Part 10 object held in b: a file Encode produced,
// or any conforming Explicit-VR-LE single-frame 16-bit monochrome file
// carrying the tags the pipeline needs. The returned Image's Pixels aliases
// b, so nothing is allocated in proportion to what the object claims. Every
// error wraps ErrFormat.
func Decode(b []byte) (*Image, error) {
	if len(b) < preambleLen+len(dicmMagic) {
		return nil, formatErrf("truncated preamble (%d bytes)", len(b))
	}
	if !bytes.Equal(b[preambleLen:preambleLen+len(dicmMagic)], dicmMagic) {
		return nil, formatErrf("missing DICM magic")
	}
	p := &elements{b: b[preambleLen+len(dicmMagic):]}

	// File meta group.
	first, err := p.next()
	if err == io.EOF {
		err = formatErrf("no file meta group")
	}
	if err != nil {
		return nil, err
	}
	if first.Tag != TagFileMetaLength || len(first.Value) != 4 {
		return nil, formatErrf("expected %v first, got %v", TagFileMetaLength, first.Tag)
	}
	metaLen := uint64(binary.LittleEndian.Uint32(first.Value))
	if metaLen > uint64(len(p.b)) {
		return nil, formatErrf("file meta group claims %d bytes, %d left", metaLen, len(p.b))
	}
	meta := &elements{b: p.b[:metaLen]}
	p.b = p.b[metaLen:]
	syntax := ""
	for {
		e, err := meta.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if e.Tag == TagTransferSyntax {
			syntax = e.Text()
		}
	}
	if syntax != ExplicitVRLittleEndian {
		return nil, formatErrf("unsupported transfer syntax %q (only explicit VR little endian)", syntax)
	}

	img := &Image{}
	bitsAllocated := 16
	for {
		e, err := p.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch e.Tag {
		case TagRows:
			v, err := e.Uint16()
			if err != nil {
				return nil, err
			}
			img.Rows = int(v)
		case TagColumns:
			v, err := e.Uint16()
			if err != nil {
				return nil, err
			}
			img.Cols = int(v)
		case TagBitsAllocated:
			v, err := e.Uint16()
			if err != nil {
				return nil, err
			}
			bitsAllocated = int(v)
		case TagInstanceNumber:
			if img.InstanceNumber, err = e.Int(); err != nil {
				return nil, err
			}
		case TagAcquisitionNum:
			if img.Acquisition, err = e.Int(); err != nil {
				return nil, err
			}
		case TagSliceLocation:
			if img.SliceLocation, err = e.Float(); err != nil {
				return nil, err
			}
		case TagWindowCenter:
			if img.WindowCenter, err = e.Float(); err != nil {
				return nil, err
			}
		case TagWindowWidth:
			if img.WindowWidth, err = e.Float(); err != nil {
				return nil, err
			}
		case TagPixelData:
			img.Pixels = e.Value
		}
	}
	switch {
	case img.Rows == 0 || img.Cols == 0:
		return nil, formatErrf("file carries no image geometry")
	case img.Pixels == nil:
		return nil, formatErrf("file carries no pixel data")
	case bitsAllocated != 16:
		return nil, formatErrf("unsupported bits allocated %d", bitsAllocated)
	case len(img.Pixels) != 2*img.Rows*img.Cols:
		return nil, formatErrf("pixel data is %d bytes, want %d for %dx%d", len(img.Pixels), 2*img.Rows*img.Cols, img.Cols, img.Rows)
	}
	return img, nil
}

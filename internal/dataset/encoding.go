package dataset

import (
	"bytes"
	"fmt"

	"haralick4d/internal/dicom"
)

// Encoding names how a dataset stores each slice's pixels. Every encoding
// shares the rest of the layout (the header, the per-node indexes with
// their CRC-32C column, one object per slice), so the backends, the block
// cache, the resilience layer and the readers serve all of them alike.
type Encoding string

const (
	// EncodingRaw stores X·Y little-endian uint16 values, x fastest: the
	// paper's layout. The header leaves it out, so raw headers read and
	// write as they did before encodings existed.
	EncodingRaw Encoding = ""
	// EncodingDICOM stores each slice as one DICOM Part-10 object (see
	// internal/dicom) whose window centre/width carries the header's
	// Min/Max, the one requantization range of every encoding.
	EncodingDICOM Encoding = "dicom"
)

// ParseEncoding maps a format name ("raw" or "dicom") to its Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "raw":
		return EncodingRaw, nil
	case "dicom":
		return EncodingDICOM, nil
	}
	return "", fmt.Errorf("dataset: unknown slice encoding %q", s)
}

// String returns the encoding's format name.
func (e Encoding) String() string {
	if e == EncodingRaw {
		return "raw"
	}
	return string(e)
}

// check rejects an encoding this package cannot write or read.
func (e Encoding) check() error {
	if e != EncodingRaw && e != EncodingDICOM {
		return fmt.Errorf("unknown slice encoding %q", string(e))
	}
	return nil
}

// sliceFileName returns the file name of slice (z, t) in the encoding.
func sliceFileName(z, t int, enc Encoding) string {
	ext := ".raw"
	if enc == EncodingDICOM {
		ext = ".dcm"
	}
	return fmt.Sprintf("slice_t%04d_z%04d%s", t, z, ext)
}

// maxObjectSize is the most bytes one slice object of the dataset may hold:
// its pixels, plus the header allowance of an encoding that has a header.
func (m *Meta) maxObjectSize() int {
	n := 2 * m.Dims[0] * m.Dims[1]
	if m.Encoding == EncodingDICOM {
		n += dicom.HeaderAllowance
	}
	return n
}

// encodeSlice wraps one slice's little-endian pixel bytes in the dataset's
// encoding.
func encodeSlice(meta *Meta, z, t int, pix []byte) ([]byte, error) {
	if meta.Encoding == EncodingRaw {
		return pix, nil
	}
	var b bytes.Buffer
	err := dicom.Encode(&b, &dicom.Image{
		Rows:           meta.Dims[1],
		Cols:           meta.Dims[0],
		Pixels:         pix,
		InstanceNumber: SliceID(meta, z, t),
		Acquisition:    t,
		SliceLocation:  float64(z),
		WindowCenter:   (float64(meta.Min) + float64(meta.Max)) / 2,
		WindowWidth:    float64(meta.Max) - float64(meta.Min),
	})
	if err != nil {
		return nil, err
	}
	if b.Len() > meta.maxObjectSize() {
		return nil, fmt.Errorf("dataset: DICOM slice of %d bytes exceeds the %d-byte read of its geometry", b.Len(), meta.maxObjectSize())
	}
	return b.Bytes(), nil
}

// slicePixels returns the little-endian pixel bytes inside one slice
// object's bytes. Bytes that do not decode, or decode to another geometry,
// are degraded data.
func slicePixels(meta *Meta, ref SliceRef, obj []byte) ([]byte, error) {
	if meta.Encoding == EncodingRaw {
		return obj, nil
	}
	img, err := dicom.Decode(obj)
	if err != nil {
		return nil, degradedf("slice %s: %w", ref.File, err)
	}
	if img.Cols != meta.Dims[0] || img.Rows != meta.Dims[1] {
		return nil, degradedf("slice %s is %dx%d, the dataset's slices are %dx%d", ref.File, img.Cols, img.Rows, meta.Dims[0], meta.Dims[1])
	}
	return img.Pixels, nil
}

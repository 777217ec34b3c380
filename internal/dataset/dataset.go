// Package dataset implements the paper's disk-resident 4D dataset layout
// (§4.2): the 2D image slices making up each 3D volume are declustered
// round-robin across storage nodes; every slice is stored in its own raw
// file, and each storage node keeps a simple index file associating each
// image file with its ⟨time step, slice number⟩ tuple.
//
// On-disk layout under a dataset root directory:
//
//	dataset.json                 header: dims, node count, global min/max
//	node000/index.txt            lines: <filename> <t> <z>
//	node000/slice_t0000_z0000.raw X·Y little-endian uint16 values, x fastest
//	node001/...
//
// The header's encoding field says how a slice is stored: absent is raw, as
// above; "dicom" stores each slice as one Part-10 object,
// node000/slice_t0000_z0000.dcm (see Encoding). Nothing else differs.
//
// A "storage node" is a subdirectory; in a genuinely distributed deployment
// each subdirectory lives on a different machine's local disk, but the
// format (and all readers) only ever touch one node directory at a time, so
// the simulation on one host is faithful.
package dataset

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"haralick4d/internal/volume"
)

// FormatVersion identifies the on-disk format.
const FormatVersion = 1

// ErrDegradedData marks per-slice data failures — a missing, truncated,
// short-read or checksum-mismatched slice file. Callers (the reader filters
// under fault.SkipDegraded) classify with errors.Is and skip the slice
// instead of aborting; argument-validation errors (wrong buffer size, region
// out of bounds) are never marked degraded.
var ErrDegradedData = errors.New("dataset: degraded data")

// degradedf builds an ErrDegradedData-wrapped error; format may itself
// contain a %w for the underlying cause.
func degradedf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrDegradedData}, args...)...)
}

// castagnoli is the CRC-32C table used for the per-slice checksums (the
// polynomial with hardware support on current CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Distribution selects how 2D slices are declustered across storage nodes.
// The paper uses round-robin because "common analysis queries specify entire
// 3D volumes over a range of time steps" (§4.2); the alternatives are kept
// for the declustering ablation.
type Distribution int

const (
	// RoundRobinDist deals slices to nodes in turn by global slice id —
	// the paper's layout; every volume read touches all nodes evenly.
	RoundRobinDist Distribution = iota
	// BlockDist stores contiguous runs of slices per node — good locality
	// for single-node scans, poor parallelism for volume queries.
	BlockDist
	// SliceModDist places all time steps of slice z on node z mod N —
	// favors temporal queries of one slice, serializes volume reads of
	// few-slice datasets.
	SliceModDist
)

// String returns the distribution's flag name.
func (d Distribution) String() string {
	switch d {
	case RoundRobinDist:
		return "round-robin"
	case BlockDist:
		return "block"
	case SliceModDist:
		return "slice-mod"
	}
	return fmt.Sprintf("distribution(%d)", int(d))
}

// ParseDistribution is the inverse of String.
func ParseDistribution(s string) (Distribution, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobinDist, nil
	case "block":
		return BlockDist, nil
	case "slice-mod":
		return SliceModDist, nil
	}
	return 0, fmt.Errorf("dataset: unknown distribution %q", s)
}

// Meta is the dataset header stored in dataset.json. Min and Max record the
// global intensity range so distributed readers requantize consistently
// without a second pass over the data. Dist records the declustering
// policy (absent/zero = round-robin, the paper's layout).
type Meta struct {
	Version int          `json:"version"`
	Dims    [4]int       `json:"dims"` // X, Y, Z, T
	Nodes   int          `json:"nodes"`
	Min     uint16       `json:"min"`
	Max     uint16       `json:"max"`
	Dist    Distribution `json:"dist,omitempty"`
	// Checksums records that the index files carry per-slice CRC-32C
	// checksums (the optional fourth index column). Datasets written before
	// checksums existed read fine: the field is absent and whole-slice reads
	// simply skip verification.
	Checksums bool `json:"checksums,omitempty"`
	// Encoding is how each slice object stores its pixels; absent is raw.
	Encoding Encoding `json:"encoding,omitempty"`
}

// SliceRef locates one 2D image slice within a storage node.
type SliceRef struct {
	File string // file name relative to the node directory
	T, Z int
	// CRC is the CRC-32C of the slice file's raw bytes; HasCRC tells a
	// checksum of zero apart from a pre-checksum index line.
	CRC    uint32
	HasCRC bool
}

// SliceID returns the global linear id of the slice, t·Z + z — the order in
// which slices are dealt round-robin to storage nodes.
func SliceID(meta *Meta, z, t int) int { return t*meta.Dims[2] + z }

// OwnerNode returns the storage node that holds slice (z, t) under the
// dataset's declustering policy.
func OwnerNode(meta *Meta, z, t int) int {
	switch meta.Dist {
	case BlockDist:
		total := meta.Dims[2] * meta.Dims[3]
		return SliceID(meta, z, t) * meta.Nodes / total
	case SliceModDist:
		return z % meta.Nodes
	default:
		return SliceID(meta, z, t) % meta.Nodes
	}
}

// SliceFileName returns the canonical file name for raw slice (z, t).
func SliceFileName(z, t int) string { return sliceFileName(z, t, EncodingRaw) }

func nodeDirName(node int) string { return fmt.Sprintf("node%03d", node) }

// Write declusters the volume across nodes storage-node subdirectories of
// dir with the paper's round-robin policy, creating the directory tree,
// slice files, per-node index files and the dataset header. It returns the
// header. Slices are raw.
func Write(dir string, v *volume.Volume, nodes int) (*Meta, error) {
	return WriteDistributed(dir, v, nodes, RoundRobinDist, EncodingRaw)
}

// WriteDistributed is Write with an explicit declustering policy and slice
// encoding.
func WriteDistributed(dir string, v *volume.Volume, nodes int, dist Distribution, enc Encoding) (*Meta, error) {
	return writeDataset(dirWriter{dir: dir}, v, nodes, dist, enc)
}

// blobWriter is the write half of the storage abstraction: the dataset
// writer targets it so the same layout lands on a local directory tree
// (dirWriter) or in memory (MemBackend). Names are slash-separated paths
// relative to the dataset root.
type blobWriter interface {
	WriteFile(name string, data []byte) error
}

// dirWriter writes blobs atomically under a root directory, creating parent
// directories as needed.
type dirWriter struct{ dir string }

func (w dirWriter) WriteFile(name string, data []byte) error {
	path := filepath.Join(w.dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return atomicWriteFile(path, data)
}

// writeDataset declusters the volume onto any blob writer in the canonical
// layout: slice files in the given encoding, per-node index files with
// checksum columns over each file's bytes, and the header last (a crash at
// any earlier point leaves a root without dataset.json, which Open rejects
// outright instead of serving a partial dataset).
func writeDataset(w blobWriter, v *volume.Volume, nodes int, dist Distribution, enc Encoding) (*Meta, error) {
	if dist < RoundRobinDist || dist > SliceModDist {
		return nil, fmt.Errorf("dataset: invalid distribution %d", int(dist))
	}
	lo, hi := v.MinMax()
	meta := &Meta{Version: FormatVersion, Dims: v.Dims, Nodes: nodes, Min: lo, Max: hi, Dist: dist, Checksums: true, Encoding: enc}
	// Write nothing a reader would refuse.
	if err := meta.check(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}

	indexes := make([][]SliceRef, nodes)
	X, Y := v.Dims[0], v.Dims[1]
	for t := 0; t < v.Dims[3]; t++ {
		for z := 0; z < v.Dims[2]; z++ {
			node := OwnerNode(meta, z, t)
			ref := SliceRef{File: sliceFileName(z, t, enc), T: t, Z: z}
			pix := make([]byte, 2*X*Y)
			for i, val := range v.Slice(z, t) {
				binary.LittleEndian.PutUint16(pix[2*i:], val)
			}
			data, err := encodeSlice(meta, z, t, pix)
			if err != nil {
				return nil, fmt.Errorf("dataset: encoding slice: %w", err)
			}
			ref.CRC, ref.HasCRC = crc32.Checksum(data, castagnoli), true
			if err := w.WriteFile(nodeDirName(node)+"/"+ref.File, data); err != nil {
				return nil, fmt.Errorf("dataset: writing slice: %w", err)
			}
			indexes[node] = append(indexes[node], ref)
		}
	}
	for node, refs := range indexes {
		if err := writeIndex(w, nodeDirName(node)+"/index.txt", refs); err != nil {
			return nil, err
		}
	}
	hdr, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if err := w.WriteFile("dataset.json", append(hdr, '\n')); err != nil {
		return nil, fmt.Errorf("dataset: writing header: %w", err)
	}
	return meta, nil
}

func writeIndex(w blobWriter, name string, refs []SliceRef) error {
	var b strings.Builder
	for _, r := range refs {
		if r.HasCRC {
			fmt.Fprintf(&b, "%s %d %d %08x\n", r.File, r.T, r.Z, r.CRC)
		} else {
			fmt.Fprintf(&b, "%s %d %d\n", r.File, r.T, r.Z)
		}
	}
	if err := w.WriteFile(name, []byte(b.String())); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// atomicWriteFile publishes data at path via write-temp → fsync → rename, so
// a crash mid-write leaves at worst an orphaned "*.tmp" the readers never
// open — never a short or torn file under the final name.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Store provides read access to a dataset through a storage backend.
type Store struct {
	// Dir is the local root directory when the backend is local-FS (possibly
	// behind a cache layer), "" otherwise. Retained for callers that poke the
	// on-disk layout directly (corruption injection, node-dir tooling).
	Dir  string
	Meta Meta
	be   Backend
}

// Open reads the dataset header of a local directory and returns a store —
// the original entry point, now a thin shim over the backend machinery with
// the default file-descriptor cache.
func Open(dir string) (*Store, error) {
	return OpenBackend(context.Background(), NewLocalBackend(dir, 0))
}

// OpenBackend reads the dataset header through the given backend and returns
// a store whose reads go through it. ctx bounds the header fetch and is not
// retained. The store owns the backend; Close releases it.
func OpenBackend(ctx context.Context, be Backend) (*Store, error) {
	raw, err := be.ReadFile(ctx, "dataset.json")
	if err != nil {
		if errors.Is(err, ErrBackendUnavailable) {
			return nil, err
		}
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadHeader, err)
	}
	if err := meta.check(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadHeader, err)
	}
	return &Store{Dir: localDirOf(be), Meta: meta, be: be}, nil
}

// ErrBadHeader marks a dataset header that describes no readable study:
// malformed JSON, an unknown format version or encoding, no storage node,
// or a geometry whose sizes are not positive or would not fit in memory.
// OpenBackend fails with it before anything is sized from the header.
var ErrBadHeader = errors.New("dataset: bad header")

// maxSliceBytes bounds one slice object (maxObjectSize), the buffer every
// slice read leases: 256 MiB, an 8192×16384 slice of 2-byte voxels.
const maxSliceBytes = 1 << 28

// check rejects a header whose geometry the readers cannot size: every dim
// must be at least 1, the voxel count (in bytes) must fit in an int, and a
// slice object must fit in maxSliceBytes.
func (m *Meta) check() error {
	if m.Version != FormatVersion {
		return fmt.Errorf("unsupported format version %d", m.Version)
	}
	if m.Nodes < 1 {
		return fmt.Errorf("node count %d must be >= 1", m.Nodes)
	}
	size := 2
	for i, d := range m.Dims {
		if d < 1 {
			return fmt.Errorf("dims %v: dim %d is not positive", m.Dims, i)
		}
		if size > math.MaxInt/d {
			return fmt.Errorf("dims %v: the volume's size overflows", m.Dims)
		}
		size *= d
	}
	if m.Dims[0] > maxSliceBytes/2/m.Dims[1] || m.maxObjectSize() > maxSliceBytes {
		return fmt.Errorf("dims %v: a slice exceeds %d bytes", m.Dims, maxSliceBytes)
	}
	// A node holds at least one slice: one reader copy runs per node, so the
	// node count would otherwise size the graph.
	if slices := m.Dims[2] * m.Dims[3]; m.Nodes > slices {
		return fmt.Errorf("node count %d exceeds the %d slices", m.Nodes, slices)
	}
	return m.Encoding.check()
}

// Backend returns the store's storage backend.
func (s *Store) Backend() Backend { return s.be }

// Stats returns the backend's I/O and cache counters.
func (s *Store) Stats() Stats { return s.be.Stats() }

// Close releases the backend (cached file handles, idle connections). Reads
// after Close fail.
func (s *Store) Close() error { return s.be.Close() }

// WithCache returns a store over the same dataset whose reads go through a
// fixed-size block cache of blocks × blockSize bytes (blockSize 0 selects
// DefaultCacheBlockSize) layered over this store's backend. The two stores
// share the backend; close only one of them.
func (s *Store) WithCache(blockSize, blocks int) (*Store, error) {
	cb, err := NewCachedBackend(s.be, blockSize, blocks)
	if err != nil {
		return nil, err
	}
	return &Store{Dir: s.Dir, Meta: s.Meta, be: cb}, nil
}

// NodeDir returns the local directory of the given storage node. Meaningful
// only for local-FS backends (Dir != "").
func (s *Store) NodeDir(node int) string { return filepath.Join(s.Dir, nodeDirName(node)) }

// nodeObjectName returns the backend name of a file in a node's directory.
func nodeObjectName(node int, file string) string { return nodeDirName(node) + "/" + file }

// NodeIndex parses the node's index file and returns its slice refs sorted
// by (T, Z).
func (s *Store) NodeIndex(node int) ([]SliceRef, error) {
	return s.NodeIndexContext(context.Background(), node)
}

// NodeIndexContext is NodeIndex bounded by ctx.
func (s *Store) NodeIndexContext(ctx context.Context, node int) ([]SliceRef, error) {
	if node < 0 || node >= s.Meta.Nodes {
		return nil, fmt.Errorf("dataset: node %d out of range [0, %d)", node, s.Meta.Nodes)
	}
	raw, err := s.be.ReadFile(ctx, nodeObjectName(node, "index.txt"))
	if err != nil {
		if errors.Is(err, ErrBackendUnavailable) {
			return nil, err
		}
		return nil, fmt.Errorf("dataset: %w", err)
	}
	refs, err := parseIndex(node, raw, s.Meta.Dims)
	if err != nil {
		return nil, err
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].T != refs[j].T {
			return refs[i].T < refs[j].T
		}
		return refs[i].Z < refs[j].Z
	})
	return refs, nil
}

// parseIndex parses one node's index file: lines of "<file> <t> <z>" with an
// optional fourth CRC-32C hex column. Slice coordinates are range-checked
// against dims. Shared by the store and the format fuzz tests.
func parseIndex(node int, raw []byte, dims [4]int) ([]SliceRef, error) {
	var refs []SliceRef
	sc := bufio.NewScanner(bytes.NewReader(raw))
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("dataset: node %d index line %d: want 3 or 4 fields, got %d", node, line, len(fields))
		}
		var r SliceRef
		r.File = fields[0]
		var err error
		if r.T, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("dataset: node %d index line %d: %w", node, line, err)
		}
		if r.Z, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("dataset: node %d index line %d: %w", node, line, err)
		}
		if len(fields) == 4 {
			crc, err := strconv.ParseUint(fields[3], 16, 32)
			if err != nil {
				return nil, fmt.Errorf("dataset: node %d index line %d: bad checksum: %w", node, line, err)
			}
			r.CRC, r.HasCRC = uint32(crc), true
		}
		if r.T < 0 || r.T >= dims[3] || r.Z < 0 || r.Z >= dims[2] {
			return nil, fmt.Errorf("dataset: node %d index line %d: slice (z=%d, t=%d) out of range", node, line, r.Z, r.T)
		}
		refs = append(refs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return refs, nil
}

// rawBufPool recycles the scratch byte buffers the slice readers decode out
// of, so steady-state reads allocate only their output (or nothing, when the
// caller supplies it).
var rawBufPool sync.Pool // holds *[]byte

func getRawBuf(n int) []byte {
	if p, ok := rawBufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putRawBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	rawBufPool.Put(&b)
}

// DecodeUint16s decodes little-endian uint16s from src into dst. The hot
// loop reads 8 bytes (four values) per iteration instead of one 2-byte load
// per value; callers guarantee len(src) ≥ 2·len(dst).
func DecodeUint16s(dst []uint16, src []byte) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		w := binary.LittleEndian.Uint64(src[2*i:])
		dst[i] = uint16(w)
		dst[i+1] = uint16(w >> 16)
		dst[i+2] = uint16(w >> 32)
		dst[i+3] = uint16(w >> 48)
	}
	for ; i < n; i++ {
		dst[i] = binary.LittleEndian.Uint16(src[2*i:])
	}
}

// sliceReadErr classifies a backend failure while reading a slice: transport
// and storage-layer failures (ErrBackendUnavailable) pass through unmarked —
// they say nothing about this slice and must abort even under SkipDegraded —
// while everything else (missing, truncated, short-read files) is per-slice
// degraded data.
func sliceReadErr(format string, args ...any) error {
	for _, a := range args {
		err, ok := a.(error)
		if !ok {
			continue
		}
		if errors.Is(err, ErrBackendUnavailable) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf(format, args...)
		}
	}
	return degradedf(format, args...)
}

// ReadSlice reads one whole 2D slice from the given node.
func (s *Store) ReadSlice(node int, ref SliceRef) ([]uint16, error) {
	return s.ReadSliceContext(context.Background(), node, ref)
}

// ReadSliceContext is ReadSlice bounded by ctx.
func (s *Store) ReadSliceContext(ctx context.Context, node int, ref SliceRef) ([]uint16, error) {
	X, Y := s.Meta.Dims[0], s.Meta.Dims[1]
	out := make([]uint16, X*Y)
	if err := s.ReadSliceIntoContext(ctx, node, ref, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSliceInto is ReadSlice decoding into the caller's X·Y-value buffer, so
// a streaming reader reuses one buffer per window instead of allocating the
// raw file plus the output on every call.
//
// When ref carries a checksum (datasets written with Meta.Checksums), the
// file's bytes are verified against it, so silent bit corruption surfaces as
// an ErrDegradedData-wrapped error — as do missing, truncated, short-read
// and (in a DICOM dataset) undecodable or wrong-geometry slices. Note that
// only whole-slice reads verify checksums; the positioned window reads of
// ReadSliceRegionInto on a raw dataset detect truncation but not bit flips.
func (s *Store) ReadSliceInto(node int, ref SliceRef, out []uint16) error {
	return s.ReadSliceIntoContext(context.Background(), node, ref, out)
}

// ReadSliceIntoContext is ReadSliceInto bounded by ctx.
func (s *Store) ReadSliceIntoContext(ctx context.Context, node int, ref SliceRef, out []uint16) error {
	X, Y := s.Meta.Dims[0], s.Meta.Dims[1]
	if len(out) != X*Y {
		return fmt.Errorf("dataset: slice buffer holds %d values, want %d", len(out), X*Y)
	}
	obj, err := s.be.Open(ctx, nodeObjectName(node, ref.File))
	if err != nil {
		return sliceReadErr("slice %s: %w", ref.File, err)
	}
	defer obj.Close()
	raw := getRawBuf(s.Meta.maxObjectSize())
	defer putRawBuf(raw)
	// The read itself checks the length, so a wrong-sized slice costs one
	// backend request like a healthy one: the object must end (io.EOF)
	// inside raw, and a raw slice exactly where raw does.
	n, err := obj.ReadAt(ctx, raw, 0)
	if err != nil && err != io.EOF {
		return sliceReadErr("reading %s: %w", ref.File, err)
	} else if err == nil || (n != len(raw) && s.Meta.Encoding == EncodingRaw) {
		return degradedf("slice %s is not %d bytes long (read %d, at its end: %t)", ref.File, len(raw), n, err != nil)
	}
	raw = raw[:n]
	if ref.HasCRC {
		if got := crc32.Checksum(raw, castagnoli); got != ref.CRC {
			return degradedf("slice %s checksum mismatch: got %08x, want %08x", ref.File, got, ref.CRC)
		}
	}
	pix, err := slicePixels(&s.Meta, ref, raw)
	if err != nil {
		return err
	}
	DecodeUint16s(out, pix)
	return nil
}

// ReadSliceRegion reads the 2D subsection [x0, x1)×[y0, y1) of a slice with
// one positioned read — the paper's "RFR filter reads a 2D subsection of each
// image slice". The read spans the window's first value to its last, so a
// window costs one seek or one remote request whatever its height.
func (s *Store) ReadSliceRegion(node int, ref SliceRef, x0, x1, y0, y1 int) ([]uint16, error) {
	return s.ReadSliceRegionContext(context.Background(), node, ref, x0, x1, y0, y1)
}

// ReadSliceRegionContext is ReadSliceRegion bounded by ctx.
func (s *Store) ReadSliceRegionContext(ctx context.Context, node int, ref SliceRef, x0, x1, y0, y1 int) ([]uint16, error) {
	X, Y := s.Meta.Dims[0], s.Meta.Dims[1]
	if x0 < 0 || x1 > X || y0 < 0 || y1 > Y || x0 >= x1 || y0 >= y1 {
		return nil, fmt.Errorf("dataset: region [%d,%d)x[%d,%d) outside slice %dx%d", x0, x1, y0, y1, X, Y)
	}
	out := make([]uint16, (x1-x0)*(y1-y0))
	if err := s.ReadSliceRegionIntoContext(ctx, node, ref, x0, x1, y0, y1, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadSliceRegionInto is ReadSliceRegion decoding into the caller's
// (x1−x0)·(y1−y0)-value buffer.
func (s *Store) ReadSliceRegionInto(node int, ref SliceRef, x0, x1, y0, y1 int, out []uint16) error {
	return s.ReadSliceRegionIntoContext(context.Background(), node, ref, x0, x1, y0, y1, out)
}

// ReadSliceRegionIntoContext is ReadSliceRegionInto bounded by ctx.
func (s *Store) ReadSliceRegionIntoContext(ctx context.Context, node int, ref SliceRef, x0, x1, y0, y1 int, out []uint16) error {
	X, Y := s.Meta.Dims[0], s.Meta.Dims[1]
	if x0 < 0 || x1 > X || y0 < 0 || y1 > Y || x0 >= x1 || y0 >= y1 {
		return fmt.Errorf("dataset: region [%d,%d)x[%d,%d) outside slice %dx%d", x0, x1, y0, y1, X, Y)
	}
	w := x1 - x0
	if len(out) != w*(y1-y0) {
		return fmt.Errorf("dataset: region buffer holds %d values, want %d", len(out), w*(y1-y0))
	}
	if s.Meta.Encoding == EncodingDICOM {
		// A DICOM object has no fixed pixel offset to seek to: decode the
		// whole slice and crop the window. Correct, not fast.
		full := make([]uint16, X*Y)
		if err := s.ReadSliceIntoContext(ctx, node, ref, full); err != nil {
			return err
		}
		for y := y0; y < y1; y++ {
			copy(out[(y-y0)*w:(y-y0+1)*w], full[y*X+x0:y*X+x1])
		}
		return nil
	}
	obj, err := s.be.Open(ctx, nodeObjectName(node, ref.File))
	if err != nil {
		return sliceReadErr("slice %s: %w", ref.File, err)
	}
	defer obj.Close()
	// Row y of the window starts 2·X·(y−y0) bytes into the band; the columns
	// outside [x0, x1) between two rows are read and dropped.
	band := getRawBuf(2 * ((y1-y0-1)*X + w))
	defer putRawBuf(band)
	off := int64(2 * (y0*X + x0))
	// ReadAt returns a non-nil error (io.EOF included) whenever it reads
	// fewer than len(band) bytes, so a truncated slice file surfaces here
	// instead of yielding silently zeroed rows.
	if n, err := obj.ReadAt(ctx, band, off); err != nil && !(err == io.EOF && n == len(band)) {
		return sliceReadErr("slice %s rows %d-%d: read %d of %d bytes at offset %d: %w",
			ref.File, y0, y1-1, n, len(band), off, err)
	}
	for y := y0; y < y1; y++ {
		DecodeUint16s(out[(y-y0)*w:(y-y0+1)*w], band[2*(y-y0)*X:])
	}
	return nil
}

// ReadVolume reads the entire dataset back into memory (the optimization
// footnote 1 of the paper applies only to datasets that fit in memory; this
// is also the test oracle).
func (s *Store) ReadVolume() (*volume.Volume, error) {
	return s.ReadVolumeContext(context.Background())
}

// ReadVolumeContext is ReadVolume bounded by ctx.
func (s *Store) ReadVolumeContext(ctx context.Context) (*volume.Volume, error) {
	v := volume.NewVolume(s.Meta.Dims)
	for node := 0; node < s.Meta.Nodes; node++ {
		refs, err := s.NodeIndexContext(ctx, node)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			sl, err := s.ReadSliceContext(ctx, node, ref)
			if err != nil {
				return nil, err
			}
			copy(v.Slice(ref.Z, ref.T), sl)
		}
	}
	return v, nil
}

// Validate checks that the union of all node indexes covers every (z, t)
// slice exactly once and that each slice is on its round-robin owner node.
func (s *Store) Validate() error {
	seen := make(map[[2]int]int)
	for node := 0; node < s.Meta.Nodes; node++ {
		refs, err := s.NodeIndex(node)
		if err != nil {
			return err
		}
		for _, ref := range refs {
			key := [2]int{ref.Z, ref.T}
			if prev, dup := seen[key]; dup {
				return fmt.Errorf("dataset: slice (z=%d, t=%d) indexed on nodes %d and %d", ref.Z, ref.T, prev, node)
			}
			seen[key] = node
			if want := OwnerNode(&s.Meta, ref.Z, ref.T); want != node {
				return fmt.Errorf("dataset: slice (z=%d, t=%d) on node %d, %v owner is %d", ref.Z, ref.T, node, s.Meta.Dist, want)
			}
		}
	}
	if want := s.Meta.Dims[2] * s.Meta.Dims[3]; len(seen) != want {
		return fmt.Errorf("dataset: %d slices indexed, want %d", len(seen), want)
	}
	return nil
}

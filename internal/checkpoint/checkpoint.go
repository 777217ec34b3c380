// Package checkpoint implements the durable progress journal behind
// checkpoint/restart: an append-only record file the output sinks write as
// parameter portions become durable, designed so that a run killed at any
// instant — mid-write included — can be resumed with its completed work
// trusted and its torn tail discarded.
//
// File format: a sequence of length-prefixed frames,
//
//	u32le payload length | u32le CRC-32C(payload) | payload
//
// where the payload's first byte is the record type. The first record is
// always a header carrying the run fingerprint (dataset dimensions, ROI,
// chunk shape, gray levels, direction set, feature list, representation);
// a resume against a journal written under any other configuration is
// refused, because portion records are only meaningful in the geometry that
// produced them. Portion records carry one feature's values for one output
// box; degraded records mark chunks a SkipDegraded run surrendered.
//
// Crash safety follows from append-only writes plus per-record checksums:
// the only damage a crash can cause is an incomplete or corrupt final
// frame, which Resume detects, reports and truncates away. Records are
// written through to the operating system on every append (so an aborted
// process loses nothing) and fsync'd on a configurable interval (bounding
// what a machine death can lose).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"haralick4d/internal/volume"
)

const (
	// magic marks byte 1 of the header payload ("H4J1").
	magic   = uint32(0x4834_4a31)
	version = 1

	recHeader   = byte(1)
	recPortion  = byte(2)
	recDegraded = byte(3)

	// maxRecord rejects absurd frame lengths when scanning a damaged file,
	// so a corrupt length field cannot trigger a huge allocation.
	maxRecord = 1 << 28

	// DefaultSyncInterval is the fsync cadence when the caller passes 0.
	DefaultSyncInterval = time.Second
)

// castagnoli is the CRC-32C table, the same polynomial the dataset layer
// uses for per-slice checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrMismatch marks a resume against a journal whose header fingerprint
// does not match the current run configuration.
var ErrMismatch = errors.New("checkpoint: journal belongs to a different run configuration")

// ErrCorrupt marks semantically invalid records in the checksummed body of
// a journal — damage a torn tail cannot explain.
var ErrCorrupt = errors.New("checkpoint: journal corrupt")

// Header is the run fingerprint stored as the journal's first record. Two
// runs may share a journal only if every field matches: portion boxes are
// expressed in output (ROI-origin) coordinates, whose meaning depends on
// all of them.
type Header struct {
	Dims       [4]int // dataset dimensions
	ROI        [4]int
	ChunkShape [4]int
	OutDims    [4]int
	GrayLevels int
	NDim       int
	Distance   int
	// Representation is the matrix representation as an int (the core
	// package's enum); recorded because it selects the compute path whose
	// outputs the journal vouches for.
	Representation int
	// Features are the feature ids in emission order.
	Features []int
}

func (h *Header) encode() []byte {
	buf := make([]byte, 0, 128)
	buf = append(buf, recHeader)
	buf = binary.LittleEndian.AppendUint32(buf, magic)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	for _, dims := range [][4]int{h.Dims, h.ROI, h.ChunkShape, h.OutDims} {
		for k := 0; k < 4; k++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(dims[k]))
		}
	}
	for _, v := range []int{h.GrayLevels, h.NDim, h.Distance, h.Representation, len(h.Features)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, f := range h.Features {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
	}
	return buf
}

// Fingerprint returns a short stable hex digest of the header — the same
// byte encoding resume compares, folded through FNV-64a. The experiments'
// sweep memo uses it as the config half of its (fingerprint, cell) keys, so
// memoized sweep results are invalidated by exactly the changes that would
// invalidate a checkpoint journal.
func (h *Header) Fingerprint() string {
	sum := fnv.New64a()
	sum.Write(h.encode())
	return fmt.Sprintf("%016x", sum.Sum64())
}

// Portion is one journaled output portion: the values of one feature over
// one box of ROI origins (raster order), exactly as the sink received it.
type Portion struct {
	Feature int
	Box     volume.Box
	Values  []float64
}

// DegradedChunk is one journaled degraded-chunk notice: the chunk a
// SkipDegraded run surrendered, its ROI-origin box, and the lost slice ids.
type DegradedChunk struct {
	Chunk   int
	Origins volume.Box
	Slices  []int
}

// State is everything a resumed run recovers from a journal: the unique
// validated portions and degraded notices, plus how many torn-tail bytes
// the reopen had to discard.
type State struct {
	Portions []Portion
	Degraded []DegradedChunk
	// TruncatedBytes is the size of the incomplete or corrupt tail removed
	// on reopen — nonzero exactly when the writing process died mid-append.
	TruncatedBytes int64
}

// RecoveredVoxels returns the total output voxels the recovered portions
// cover, summed across features.
func (s *State) RecoveredVoxels() int {
	n := 0
	for _, p := range s.Portions {
		n += p.Box.NumVoxels()
	}
	return n
}

type portionKey struct {
	feature int
	box     volume.Box
}

// Journal is an open progress journal. Append methods are safe for
// concurrent use (several sink copies may share one journal).
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	interval time.Duration
	lastSync time.Time
	closed   bool
	// known dedupes appends: failover redelivery and resumed replays may
	// offer the same portion twice, and an idempotent journal keeps the
	// loader trivial. Bounded by the journal's own record count.
	known    map[portionKey]bool
	knownDeg map[int]bool
	buf      []byte // reusable frame-encoding scratch
}

// Create truncates (or creates) the journal at path and writes the header
// record. syncInterval bounds data loss on machine death: appends are
// fsync'd whenever that much time has passed since the last sync (0 selects
// DefaultSyncInterval). The parent directory is fsync'd once so the file's
// existence itself is durable.
func Create(path string, hdr Header, syncInterval time.Duration) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j := newJournal(f, path, syncInterval)
	if err := j.append(hdr.encode()); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(filepath.Dir(path))
	return j, nil
}

// Resume reopens an existing journal, verifies its header against hdr,
// loads and validates every intact record, truncates any torn tail, and
// returns the journal positioned for further appends together with the
// recovered state.
func Resume(path string, hdr Header, syncInterval time.Duration) (*Journal, *State, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	j := newJournal(f, path, syncInterval)
	st, err := j.load(hdr)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, st, nil
}

func newJournal(f *os.File, path string, syncInterval time.Duration) *Journal {
	if syncInterval <= 0 {
		syncInterval = DefaultSyncInterval
	}
	return &Journal{
		f:        f,
		path:     path,
		interval: syncInterval,
		lastSync: time.Now(),
		known:    map[portionKey]bool{},
		knownDeg: map[int]bool{},
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// load scans the whole file, stopping at the first frame that is short,
// oversized or fails its checksum (the torn tail), and truncates the file
// back to the last intact record. Checksummed records that fail semantic
// validation are reported as corruption instead: a torn append cannot
// produce them.
func (j *Journal) load(hdr Header) (*State, error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st := &State{}
	featOK := map[int]bool{}
	for _, f := range hdr.Features {
		featOK[f] = true
	}
	off := 0
	sawHeader := false
	for {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		if !sawHeader {
			if payload[0] != recHeader {
				return nil, fmt.Errorf("%w: first record has type %d, want header", ErrCorrupt, payload[0])
			}
			want := hdr.encode()
			if len(payload) != len(want) || string(payload) != string(want) {
				return nil, fmt.Errorf("%w (run fingerprint differs: dataset dims, ROI, chunking, gray levels, directions, features and representation must all match)", ErrMismatch)
			}
			sawHeader = true
			off = next
			continue
		}
		switch payload[0] {
		case recPortion:
			p, err := decodePortion(payload)
			if err != nil {
				return nil, err
			}
			if !featOK[p.Feature] {
				return nil, fmt.Errorf("%w: portion for feature %d not in the run's feature set", ErrCorrupt, p.Feature)
			}
			if !outBox(hdr.OutDims).ContainsBox(p.Box) || p.Box.Empty() {
				return nil, fmt.Errorf("%w: portion box %v outside output %v", ErrCorrupt, p.Box, hdr.OutDims)
			}
			key := portionKey{p.Feature, p.Box}
			if !j.known[key] {
				j.known[key] = true
				st.Portions = append(st.Portions, p)
			}
		case recDegraded:
			d, err := decodeDegraded(payload)
			if err != nil {
				return nil, err
			}
			if !outBox(hdr.OutDims).ContainsBox(d.Origins) || d.Origins.Empty() {
				return nil, fmt.Errorf("%w: degraded box %v outside output %v", ErrCorrupt, d.Origins, hdr.OutDims)
			}
			if !j.knownDeg[d.Chunk] {
				j.knownDeg[d.Chunk] = true
				st.Degraded = append(st.Degraded, d)
			}
		default:
			return nil, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, payload[0])
		}
		off = next
	}
	if !sawHeader {
		return nil, fmt.Errorf("%w: no intact header record", ErrCorrupt)
	}
	st.TruncatedBytes = int64(len(data) - off)
	if st.TruncatedBytes > 0 {
		if err := j.f.Truncate(int64(off)); err != nil {
			return nil, fmt.Errorf("checkpoint: truncating torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(int64(off), 0); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return st, nil
}

// encodeFrame wraps one payload in the journal's on-disk frame:
// u32le length | u32le CRC-32C | payload.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// nextFrame returns the payload of the frame at off and the offset of the
// next one; ok is false when the bytes from off on do not form an intact
// frame (end of file or torn tail).
func nextFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if n < 1 || n > maxRecord || off+8+n > len(data) {
		return nil, 0, false
	}
	payload = data[off+8 : off+8+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, false
	}
	return payload, off + 8 + n, true
}

func outBox(outDims [4]int) volume.Box {
	return volume.Box{Hi: outDims}
}

// AppendPortion journals one completed output portion. Duplicates of
// already-journaled portions (failover redelivery, resumed replays) are
// dropped, keeping the file append-only without growing on re-offers.
func (j *Journal) AppendPortion(feature int, box volume.Box, values []float64) error {
	if len(values) != box.NumVoxels() {
		return fmt.Errorf("checkpoint: portion for feature %d has %d values, box holds %d", feature, len(values), box.NumVoxels())
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	key := portionKey{feature, box}
	if j.known[key] {
		return nil
	}
	buf := j.buf[:0]
	buf = append(buf, recPortion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(feature))
	buf = appendBox(buf, box)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(values)))
	for _, v := range values {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	j.buf = buf
	if err := j.appendLocked(buf); err != nil {
		return err
	}
	j.known[key] = true
	return nil
}

// AppendDegraded journals one degraded-chunk notice, deduplicated by chunk
// id.
func (j *Journal) AppendDegraded(chunk int, origins volume.Box, slices []int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.knownDeg[chunk] {
		return nil
	}
	buf := j.buf[:0]
	buf = append(buf, recDegraded)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk))
	buf = appendBox(buf, origins)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(slices)))
	for _, s := range slices {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	j.buf = buf
	if err := j.appendLocked(buf); err != nil {
		return err
	}
	j.knownDeg[chunk] = true
	return nil
}

func (j *Journal) append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(payload)
}

// appendLocked frames and writes one record. The write goes straight to the
// file (no user-space buffering), so a process death after the call loses
// nothing; fsync happens on the interval to bound machine-death loss.
func (j *Journal) appendLocked(payload []byte) error {
	if j.closed {
		return fmt.Errorf("checkpoint: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(encodeFrame(payload)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if time.Since(j.lastSync) >= j.interval {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		j.lastSync = time.Now()
	}
	return nil
}

// Sync forces an fsync of everything appended so far.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	j.lastSync = time.Now()
	return nil
}

// Close fsyncs and closes the journal. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("checkpoint: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: %w", cerr)
	}
	return nil
}

func appendBox(buf []byte, b volume.Box) []byte {
	for k := 0; k < 4; k++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Lo[k]))
	}
	for k := 0; k < 4; k++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Hi[k]))
	}
	return buf
}

type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.data) {
		d.err = fmt.Errorf("%w: truncated record body", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.err = fmt.Errorf("%w: truncated record body", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

func (d *decoder) box() volume.Box {
	var b volume.Box
	for k := 0; k < 4; k++ {
		b.Lo[k] = int(int32(d.u32()))
	}
	for k := 0; k < 4; k++ {
		b.Hi[k] = int(int32(d.u32()))
	}
	return b
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(d.data)-d.off)
	}
	return nil
}

func decodePortion(payload []byte) (Portion, error) {
	d := &decoder{data: payload, off: 1}
	var p Portion
	p.Feature = int(int32(d.u32()))
	p.Box = d.box()
	n := int(d.u32())
	if d.err == nil {
		if want := p.Box.NumVoxels(); n != want || n < 0 {
			return p, fmt.Errorf("%w: portion has %d values, box holds %d", ErrCorrupt, n, want)
		}
		p.Values = make([]float64, n)
		for i := range p.Values {
			p.Values[i] = math.Float64frombits(d.u64())
		}
	}
	return p, d.done()
}

func decodeDegraded(payload []byte) (DegradedChunk, error) {
	d := &decoder{data: payload, off: 1}
	var dc DegradedChunk
	dc.Chunk = int(int32(d.u32()))
	dc.Origins = d.box()
	n := int(d.u32())
	if d.err == nil {
		if n < 0 || n > maxRecord/4 {
			return dc, fmt.Errorf("%w: degraded record claims %d slices", ErrCorrupt, n)
		}
		dc.Slices = make([]int, n)
		for i := range dc.Slices {
			dc.Slices[i] = int(int32(d.u32()))
		}
	}
	return dc, d.done()
}

// CompleteChunks maps the recovered state onto chunk geometry: a chunk is
// complete — safe to skip on resume — when every feature's journaled
// portions cover its ROI-origin box exactly, or when it was journaled as
// degraded. Overlapping or misrouted portions are corruption (the pipeline
// never produces them), not partial progress.
func CompleteChunks(st *State, ck *volume.Chunker, feats []int) (map[int]bool, error) {
	slot := map[int]int{}
	for i, f := range feats {
		slot[f] = i
	}
	type coverage struct {
		per    []int
		voxels int
	}
	cov := map[int]*coverage{}
	for _, p := range st.Portions {
		s, ok := slot[p.Feature]
		if !ok {
			return nil, fmt.Errorf("%w: portion for feature %d not in the run's feature set", ErrCorrupt, p.Feature)
		}
		idx := ck.OwnerOf(p.Box.Lo)
		ch := ck.Chunk(idx)
		if !ch.Origins.ContainsBox(p.Box) {
			return nil, fmt.Errorf("%w: portion box %v crosses chunk %d origins %v", ErrCorrupt, p.Box, idx, ch.Origins)
		}
		c := cov[idx]
		if c == nil {
			c = &coverage{per: make([]int, len(feats)), voxels: ch.Origins.NumVoxels()}
			cov[idx] = c
		}
		c.per[s] += p.Box.NumVoxels()
		if c.per[s] > c.voxels {
			return nil, fmt.Errorf("%w: feature %d portions overfill chunk %d", ErrCorrupt, p.Feature, idx)
		}
	}
	complete := map[int]bool{}
	for idx, c := range cov {
		full := true
		for _, n := range c.per {
			if n != c.voxels {
				full = false
				break
			}
		}
		if full {
			complete[idx] = true
		}
	}
	for _, d := range st.Degraded {
		if d.Chunk < 0 || d.Chunk >= ck.Count() {
			return nil, fmt.Errorf("%w: degraded chunk %d out of range [0, %d)", ErrCorrupt, d.Chunk, ck.Count())
		}
		if got := ck.Chunk(d.Chunk).Origins; got != d.Origins {
			return nil, fmt.Errorf("%w: degraded chunk %d box %v, geometry says %v", ErrCorrupt, d.Chunk, d.Origins, got)
		}
		complete[d.Chunk] = true
	}
	return complete, nil
}

// syncDir best-effort fsyncs a directory so a freshly created journal file
// survives a machine death (ignored on filesystems that refuse it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

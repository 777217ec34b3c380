// CRC-framed logs: the one durable substrate under both of the repo's
// journals.
//
// A Log is an append-only file of length-prefixed, checksummed frames,
//
//	u32le payload length | u32le CRC-32C(payload) | payload
//
// whose only permitted damage is a torn tail. Its first frame is a header
// compared byte for byte on reopen; a reopen hands every intact frame to
// its caller and then truncates the torn tail away; appends are written
// through and fsync'd on an interval. Journal (checkpoint.go) is one typed
// client, whose payloads are the run fingerprint and the portion and
// degraded records; the analysis daemon's job journal in internal/server
// is another, with JSON payloads.

package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// maxRecord rejects absurd frame lengths when scanning a damaged file,
	// so a corrupt length field cannot trigger a huge allocation.
	maxRecord = 1 << 28

	// DefaultSyncInterval is the fsync cadence when the caller passes 0.
	DefaultSyncInterval = time.Second
)

// castagnoli is the CRC-32C table, the same polynomial the dataset layer
// uses for per-slice checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is an open framed log. Append is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	interval time.Duration
	lastSync time.Time
	closed   bool
}

// CreateLog truncates (or creates) the log at path and writes header as its
// first frame. syncInterval bounds data loss on machine death: appends are
// fsync'd whenever that much time has passed since the last sync (0 selects
// DefaultSyncInterval). The parent directory is fsync'd once so the file's
// existence itself is durable.
func CreateLog(path string, header []byte, syncInterval time.Duration) (*Log, error) {
	if len(header) == 0 {
		return nil, fmt.Errorf("checkpoint: log header must not be empty")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l := newLog(f, path, syncInterval)
	if err := l.Append(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(filepath.Dir(path))
	return l, nil
}

// OpenLog reopens an existing log. It verifies that the first frame equals
// header byte-for-byte (ErrMismatch otherwise) and calls visit on each
// intact subsequent frame's payload, in order, before anything on disk
// changes; the payload is valid only during the call. A visit error closes
// the file and is returned as is, with nothing truncated. Otherwise any
// torn tail is truncated away and the log is returned positioned for
// further appends, together with the torn byte count.
func OpenLog(path string, header []byte, syncInterval time.Duration, visit func(payload []byte) error) (l *Log, truncated int64, err error) {
	// O_APPEND: appends land after the last intact frame once the torn
	// tail is gone.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	fail := func(err error) (*Log, int64, error) {
		f.Close()
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(fmt.Errorf("checkpoint: %w", err))
	}
	payload, off, ok := nextFrame(data, 0)
	if !ok {
		return fail(fmt.Errorf("%w: no intact header frame", ErrCorrupt))
	}
	if string(payload) != string(header) {
		return fail(fmt.Errorf("%w (log header differs)", ErrMismatch))
	}
	for {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break
		}
		if err := visit(payload); err != nil {
			return fail(err)
		}
		off = next
	}
	if truncated = int64(len(data) - off); truncated > 0 {
		if err := f.Truncate(int64(off)); err != nil {
			return fail(fmt.Errorf("checkpoint: truncating torn tail: %w", err))
		}
	}
	return newLog(f, path, syncInterval), truncated, nil
}

func newLog(f *os.File, path string, syncInterval time.Duration) *Log {
	if syncInterval <= 0 {
		syncInterval = DefaultSyncInterval
	}
	return &Log{f: f, path: path, interval: syncInterval, lastSync: time.Now()}
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append frames and writes one payload. The write goes straight to the file
// (no user-space buffering), so a process death after the call loses
// nothing; fsync happens on the interval to bound machine-death loss.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("checkpoint: log payload must not be empty")
	}
	if len(payload) > maxRecord {
		return fmt.Errorf("checkpoint: log payload of %d bytes exceeds the %d frame cap", len(payload), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("checkpoint: log %s is closed", l.path)
	}
	if _, err := l.f.Write(encodeFrame(payload)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if time.Since(l.lastSync) >= l.interval {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		l.lastSync = time.Now()
	}
	return nil
}

// Sync forces an fsync of everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.lastSync = time.Now()
	return nil
}

// Close fsyncs and closes the log. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.f.Sync()
	cerr := l.f.Close()
	if serr != nil {
		return fmt.Errorf("checkpoint: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("checkpoint: %w", cerr)
	}
	return nil
}

// encodeFrame wraps one payload in the on-disk frame.
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

// syncDir best-effort fsyncs a directory so a freshly created log file
// survives a machine death (ignored on filesystems that refuse it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

package dataset

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
)

// ErrBackendUnavailable marks transport-level storage failures — a remote
// server that cannot be reached, keeps failing after retries, or answers
// with a server error. It is deliberately distinct from ErrDegradedData:
// degraded means "this slice's bytes are gone or wrong, the rest of the
// dataset is fine" (skippable under fault.SkipDegraded), while unavailable
// means "the storage itself is not answering" — skipping slices would
// silently drop the whole dataset, so these always abort.
var ErrBackendUnavailable = errors.New("dataset: backend unavailable")

// backendErrf builds an ErrBackendUnavailable-wrapped error; format may
// itself contain a %w for the underlying cause.
func backendErrf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBackendUnavailable}, args...)...)
}

// Object is one open dataset object (a slice file, index or header) served
// by a Backend. Reads are positioned and cancellable; implementations must
// be safe for concurrent ReadAt calls, matching io.ReaderAt semantics
// otherwise (a short read always carries a non-nil error, io.EOF included).
type Object interface {
	// ReadAt reads len(p) bytes at byte offset off into p. A read that
	// reaches the object's last byte returns io.EOF even when it fills p
	// (io.ReaderAt leaves that open): it is how callers learn an object's
	// length from the read itself, with no separate size query.
	ReadAt(ctx context.Context, p []byte, off int64) (int, error)
	// Close releases the handle. For pooled backends this returns the
	// handle to the pool rather than closing the underlying resource.
	Close() error
}

// Backend abstracts the storage a dataset is read from: a local directory
// tree, an in-memory blob set, or a remote server answering range reads.
// Object names are slash-separated paths relative to the dataset root
// ("dataset.json", "node000/index.txt", "node000/slice_t0000_z0000.raw");
// the per-slice checksum columns of the index files travel through
// unchanged, so the degraded-read semantics (CRC verify, ErrDegradedData)
// apply identically to every backend.
//
// Implementations must be safe for concurrent use: the reader filters open
// and read objects from many goroutines at once.
type Backend interface {
	// Scheme returns the backend's URL scheme ("file", "mem", "http").
	Scheme() string
	// URL returns the backend's root location in URL form.
	URL() string
	// Open opens the named object for positioned reads. A missing object
	// reports an error matching fs.ErrNotExist; a transport failure reports
	// one matching ErrBackendUnavailable.
	Open(ctx context.Context, name string) (Object, error)
	// ReadFile reads the whole named object (used for the header and the
	// index files, which are small and read once).
	ReadFile(ctx context.Context, name string) ([]byte, error)
	// List returns the names of the objects directly under the given
	// slash-separated directory ("" for the root), sorted.
	List(ctx context.Context, dir string) ([]string, error)
	// Stats snapshots the backend's I/O counters.
	Stats() Stats
	// Close releases every resource the backend holds (open handles,
	// idle connections). Objects opened earlier stay usable only on
	// backends that do not pool handles.
	Close() error
}

// Stats is a point-in-time snapshot of a backend's counters.
type Stats struct {
	Scheme string `json:"scheme"`
	URL    string `json:"url,omitempty"`
	// Opens counts real handle acquisitions (os.Open calls) — not
	// cache-served reuses of an already-open handle. Opening an HTTP object
	// costs no request, so that backend reports 0.
	Opens int64 `json:"opens"`
	// Reads counts positioned and whole-object read operations issued to
	// the underlying storage; ReadBytes is their byte total.
	Reads     int64 `json:"reads"`
	ReadBytes int64 `json:"read_bytes"`
	// Resilience counters, populated when the backend carries a
	// resilience.Set (URLOptions.Resilience): circuit
	// breaker state and transition counts, shared-retry-budget spend, and
	// hedged-read outcomes. StaleReads counts unavailable reads converted
	// to degraded by the serve-stale layer.
	BreakerState      string `json:"breaker_state,omitempty"`
	BreakerTrips      int64  `json:"breaker_trips,omitempty"`
	BreakerProbes     int64  `json:"breaker_probes,omitempty"`
	RetryBudgetSpent  int64  `json:"retry_budget_spent,omitempty"`
	RetryBudgetDenied int64  `json:"retry_budget_denied,omitempty"`
	HedgedReads       int64  `json:"hedged_reads,omitempty"`
	HedgeWins         int64  `json:"hedge_wins,omitempty"`
	StaleReads        int64  `json:"stale_reads,omitempty"`
}

// counters is the atomic counter set every backend embeds.
type counters struct {
	opens     atomic.Int64
	reads     atomic.Int64
	readBytes atomic.Int64
}

func (c *counters) stats(scheme, url string) Stats {
	return Stats{
		Scheme:    scheme,
		URL:       url,
		Opens:     c.opens.Load(),
		Reads:     c.reads.Load(),
		ReadBytes: c.readBytes.Load(),
	}
}

// notExistf builds an fs.ErrNotExist-matching error.
func notExistf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, fs.ErrNotExist)...)
}

// WrapObjects returns a Backend whose opened objects route every read
// through wrap — the fault-injection seam. The injectors in internal/fault
// (CorruptReaderAt, TruncatedReaderAt, SlowReaderAt) are plain io.ReaderAt
// wrappers, so they plug in here directly and exercise the same degraded-
// read detection (size check, CRC verify) on any backend, local or remote.
// wrap receives the object's name and may return r unchanged to leave an
// object healthy.
func WrapObjects(b Backend, wrap func(name string, r io.ReaderAt) io.ReaderAt) Backend {
	return &wrappedBackend{Backend: b, wrap: wrap}
}

type wrappedBackend struct {
	Backend
	wrap func(name string, r io.ReaderAt) io.ReaderAt
}

func (w *wrappedBackend) Open(ctx context.Context, name string) (Object, error) {
	obj, err := w.Backend.Open(ctx, name)
	if err != nil {
		return nil, err
	}
	r := w.wrap(name, &objectReaderAt{obj: obj})
	return &wrappedObject{inner: obj, r: r}, nil
}

// objectReaderAt adapts a ctx-aware Object to the plain io.ReaderAt the
// fault injectors wrap. The injectors are local and synchronous, so the
// background context loses nothing.
type objectReaderAt struct{ obj Object }

func (a *objectReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return a.obj.ReadAt(context.Background(), p, off)
}

type wrappedObject struct {
	inner Object
	r     io.ReaderAt
}

func (o *wrappedObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return o.r.ReadAt(p, off)
}

func (o *wrappedObject) Close() error { return o.inner.Close() }

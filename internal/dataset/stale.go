// Serve-stale degradation: the opt-in layer that lets a run ride out a
// backend brownout by skipping the slices it cannot reach.

package dataset

import (
	"context"
	"errors"
	"sync/atomic"
)

// staleBackend converts transport-level unavailability on positioned reads
// into ErrDegradedData, the per-slice failure class a run with
// fault.SkipDegraded knows how to skip and account. Layered outermost, so
// the retry, breaker and hedging inside the backend have had their say
// before a read degrades.
//
// Metadata reads (ReadFile: header, index files) pass through unconverted:
// without them there is no dataset to degrade, so unavailability there must
// stay fatal. Caller-side cancellation also passes through — it is not
// evidence about the data.
type staleBackend struct {
	inner Backend
	stale atomic.Int64
}

func newStaleBackend(inner Backend) *staleBackend { return &staleBackend{inner: inner} }

// staleErrf rewrites an unavailable error as degraded. The cause is folded
// in with %v on purpose: keeping ErrBackendUnavailable in the chain would
// defeat the conversion, because the slice-read classifier checks
// unavailability before degradation.
func (b *staleBackend) staleErrf(err error) error {
	b.stale.Add(1)
	return degradedf("backend unavailable, serving degraded (%v)", err)
}

func (b *staleBackend) Scheme() string { return b.inner.Scheme() }
func (b *staleBackend) URL() string    { return b.inner.URL() }

func (b *staleBackend) Open(ctx context.Context, name string) (Object, error) {
	obj, err := b.inner.Open(ctx, name)
	if err != nil {
		if errors.Is(err, ErrBackendUnavailable) {
			return nil, b.staleErrf(err)
		}
		return nil, err
	}
	return &staleObject{be: b, inner: obj}, nil
}

func (b *staleBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	return b.inner.ReadFile(ctx, name)
}

func (b *staleBackend) List(ctx context.Context, dir string) ([]string, error) {
	return b.inner.List(ctx, dir)
}

func (b *staleBackend) Stats() Stats {
	s := b.inner.Stats()
	s.StaleReads = b.stale.Load()
	return s
}

func (b *staleBackend) Close() error { return b.inner.Close() }

type staleObject struct {
	be    *staleBackend
	inner Object
}

func (o *staleObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := o.inner.ReadAt(ctx, p, off)
	if err != nil && errors.Is(err, ErrBackendUnavailable) {
		return n, o.be.staleErrf(err)
	}
	return n, err
}

func (o *staleObject) Close() error { return o.inner.Close() }

// URL-addressed dataset opening: the redesigned entry point of the dataset
// API. dataset.Open(dir) remains as a thin local-FS shim over the same
// machinery.

package dataset

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"haralick4d/internal/resilience"
)

// URLOptions tunes OpenURL and NewBackend.
type URLOptions struct {
	// CacheBlocks enables the block-cache layer between the backend and the
	// readers: a fixed budget of this many blocks, shared across all
	// objects. 0 disables caching (the default for local reads).
	CacheBlocks int
	// CacheBlockSize is the cache's block granularity in bytes; 0 selects
	// DefaultCacheBlockSize. Meaningful only with CacheBlocks > 0.
	CacheBlockSize int
	// HTTPClient overrides http.DefaultClient for http(s) backends — the
	// seam for transport fault injection and custom TLS/timeouts.
	HTTPClient *http.Client
	// LocalMaxOpen bounds the local backend's file-descriptor cache; 0
	// selects DefaultMaxOpenFiles, negative disables handle reuse.
	LocalMaxOpen int
	// Resilience attaches a resilience set (retry schedule, circuit
	// breaker, retry budget, hedger) to http(s) backends. The daemon passes
	// per-host sets here so every job reading one host shares one breaker
	// and one storm-proof retry budget; the CLI a private one built from
	// its policy (Policy.NewSet). Nil runs the backend's default retry
	// schedule and nothing else.
	Resilience *resilience.Set
	// ServeStale converts transport-unavailable positioned reads into
	// ErrDegradedData, so a run with fault-policy skip-degraded rides out
	// a backend brownout on cached blocks and reports the unreachable ROIs
	// degraded instead of aborting. Header and index reads still abort.
	ServeStale bool
}

// ParseURL splits and validates a dataset URL. Accepted forms:
//
//	/path/to/dir  or  file:///path/to/dir   local directory
//	mem://name                              registered in-memory backend
//	http://host/prefix, https://...         remote range-read backend
//
// A string without "://" is a local path. The returned rest is the
// scheme-specific remainder (path, registry name, or the full URL for
// http).
func ParseURL(raw string) (scheme, rest string, err error) {
	if raw == "" {
		return "", "", fmt.Errorf("dataset: empty dataset URL")
	}
	i := strings.Index(raw, "://")
	if i < 0 {
		return "file", raw, nil
	}
	scheme = raw[:i]
	rest = raw[i+len("://"):]
	switch scheme {
	case "file":
		if rest == "" {
			return "", "", fmt.Errorf("dataset: URL %q has an empty path", raw)
		}
		return scheme, rest, nil
	case "mem":
		if rest == "" || strings.ContainsAny(rest, "/") {
			return "", "", fmt.Errorf("dataset: mem URL %q must be mem://<registered-name>", raw)
		}
		return scheme, rest, nil
	case "http", "https":
		if rest == "" || strings.HasPrefix(rest, "/") {
			return "", "", fmt.Errorf("dataset: URL %q has no host", raw)
		}
		return scheme, raw, nil
	}
	return "", "", fmt.Errorf("dataset: unknown dataset URL scheme %q (want file, mem, http or https)", scheme)
}

// NewBackend resolves a dataset URL to a Backend, layering the block cache
// on when o asks for one.
func NewBackend(rawurl string, o *URLOptions) (Backend, error) {
	if o == nil {
		o = &URLOptions{}
	}
	scheme, rest, err := ParseURL(rawurl)
	if err != nil {
		return nil, err
	}
	var be Backend
	switch scheme {
	case "file":
		be = NewLocalBackend(rest, o.LocalMaxOpen)
	case "mem":
		mb, ok := LookupMem(rest)
		if !ok {
			return nil, fmt.Errorf("dataset: no in-memory backend registered as %q (use RegisterMem)", rest)
		}
		be = mb
	default: // http, https — ParseURL admits nothing else
		if be, err = NewHTTPBackend(rest, o.HTTPClient, o.Resilience); err != nil {
			return nil, err
		}
	}
	if o.CacheBlocks > 0 {
		cb, err := NewCachedBackend(be, o.CacheBlockSize, o.CacheBlocks)
		if err != nil {
			return nil, err
		}
		be = cb
	} else if o.CacheBlocks < 0 {
		return nil, fmt.Errorf("dataset: cache capacity %d blocks must not be negative", o.CacheBlocks)
	} else if o.CacheBlockSize != 0 {
		return nil, fmt.Errorf("dataset: cache block size set without a cache block budget")
	}
	if o.ServeStale {
		// Outermost, above the cache: cached blocks keep serving during a
		// brownout; only reads that need the sick backend degrade.
		be = newStaleBackend(be)
	}
	return be, nil
}

// OpenURL opens a dataset by URL: it resolves the backend (see ParseURL),
// reads and checks the header, and returns a Store whose reads go through
// that backend. ctx bounds the header fetch and is not retained.
func OpenURL(ctx context.Context, rawurl string, o *URLOptions) (*Store, error) {
	be, err := NewBackend(rawurl, o)
	if err != nil {
		return nil, err
	}
	return OpenBackend(ctx, be)
}

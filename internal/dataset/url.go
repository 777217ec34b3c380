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
	// HTTPClient overrides http.DefaultClient for http(s) backends — the
	// seam for transport fault injection and custom TLS/timeouts.
	HTTPClient *http.Client
	// Resilience attaches a resilience set (retry schedule, circuit
	// breaker, retry budget, hedger) to http(s) backends. The daemon passes
	// per-host sets here so every job reading one host shares one breaker
	// and one storm-proof retry budget; the CLI a private one built from
	// its policy (Policy.NewSet). Nil runs the backend's default retry
	// schedule and nothing else.
	Resilience *resilience.Set
	// ServeStale converts transport-unavailable positioned reads into
	// ErrDegradedData, so a run with fault-policy skip-degraded rides out
	// a backend brownout: the slices it could not reach are reported
	// degraded instead of aborting the run. Header and index reads still
	// abort.
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

// NewBackend resolves a dataset URL to a Backend, wrapped in the
// serve-stale layer when o asks for it.
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
		be = NewLocalBackend(rest, 0)
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
	if o.ServeStale {
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

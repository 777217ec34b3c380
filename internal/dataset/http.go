package dataset

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"haralick4d/internal/readahead"
	"haralick4d/internal/resilience"
)

// DefaultHTTPAttempts is the per-request try budget of the HTTP backend:
// transient transport failures and server errors are retried with a short
// linear backoff before the read is reported ErrBackendUnavailable.
const DefaultHTTPAttempts = 3

// maxServerBackoff bounds a server-directed Retry-After wait when the
// context carries no deadline: a confused (or hostile) server must not be
// able to park one attempt for minutes. With a deadline, the tighter of the
// two bounds applies.
const maxServerBackoff = 2 * time.Second

// httpConns sizes a backend-owned transport: the connections it may open to
// the host and those it keeps idle are both the requests a run's self-sized
// readers keep in flight at once, so none is dialled beyond what is kept and
// none closed after one response (net/http's defaults: no limit, 2 idle per
// host, 100 idle in all — the last would silently cap the pool).
const httpConns = readahead.MaxRequests

// HTTPBackend serves a dataset from a remote HTTP(S) server using range
// reads — an object-store-style remote: the server only needs to answer GET
// with Range and Content-Range (http.FileServer, nginx, S3-compatible
// gateways all do). Every read is one request; nothing probes sizes. Slice
// checksums travel in the index files unchanged, so CRC verification catches
// remote bit rot exactly as it does local.
type HTTPBackend struct {
	base     *url.URL
	client   *http.Client
	owned    *http.Transport // non-nil when the backend built its own transport
	attempts int
	c        counters
	// res is the backend's resilience set: breaker gating every request,
	// shared budget funding retries, hedger racing slow range reads. Nil
	// leaves the plain retry loop untouched.
	res *resilience.Set
}

// SetResilience attaches a resilience set to the backend. Call before
// serving reads. The set may be shared across backends hitting the same
// host — the daemon's per-host registry does exactly that, so one sick host
// is capped by one breaker and one retry budget no matter how many jobs
// read from it.
func (b *HTTPBackend) SetResilience(s *resilience.Set) { b.res = s }

func (b *HTTPBackend) breaker() *resilience.Breaker {
	if b.res == nil {
		return nil
	}
	return b.res.Breaker
}

func (b *HTTPBackend) budget() *resilience.RetryBudget {
	if b.res == nil {
		return nil
	}
	return b.res.Budget
}

func (b *HTTPBackend) hedger() *resilience.Hedger {
	if b.res == nil {
		return nil
	}
	return b.res.Hedger
}

// record reports one answered-or-failed request to the breaker — under the
// token its Allow granted — and, on success, credits the retry budget.
func (b *HTTPBackend) record(tok resilience.Token, err error) {
	if b.res == nil {
		return
	}
	if b.res.Breaker != nil {
		b.res.Breaker.Record(tok, err)
	}
	if err == nil {
		b.res.Budget.Deposit()
	}
}

// NewHTTPBackend returns a Backend rooted at baseURL (the directory that
// holds dataset.json). client nil gives the backend a transport of its own
// (a clone of http.DefaultTransport with a pool of httpConns connections),
// which Close shuts down; a caller-supplied client stays the
// caller's. attempts <= 0 selects DefaultHTTPAttempts.
func NewHTTPBackend(baseURL string, client *http.Client, attempts int) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("dataset: invalid backend URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("dataset: backend URL %q: scheme %q is not http(s)", baseURL, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("dataset: backend URL %q has no host", baseURL)
	}
	if !strings.HasSuffix(u.Path, "/") {
		u.Path += "/"
	}
	var owned *http.Transport
	if client == nil {
		if dt, ok := http.DefaultTransport.(*http.Transport); ok {
			owned = dt.Clone()
		} else {
			owned = &http.Transport{}
		}
		owned.MaxConnsPerHost = httpConns
		owned.MaxIdleConnsPerHost = httpConns
		owned.MaxIdleConns = httpConns
		client = &http.Client{Transport: owned}
	}
	if attempts <= 0 {
		attempts = DefaultHTTPAttempts
	}
	return &HTTPBackend{base: u, client: client, owned: owned, attempts: attempts}, nil
}

// Scheme implements Backend.
func (b *HTTPBackend) Scheme() string { return b.base.Scheme }

// URL implements Backend.
func (b *HTTPBackend) URL() string { return strings.TrimSuffix(b.base.String(), "/") }

func (b *HTTPBackend) objectURL(name string) string {
	u := *b.base
	u.Path += name
	return u.String()
}

// retryAfterWait parses a Retry-After header as delta-seconds or an
// HTTP-date; 0 when absent or unparseable.
func retryAfterWait(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one GET with the retry budget. On success the caller owns the
// response body. want lists the statuses that count as success. Transport
// errors, 5xx and 429 shedding are transient and retried; 404/410 report the
// object missing; any other status is definitive and fails the request.
//
// With a resilience set attached, every request first asks the breaker
// (open ⇒ immediate ErrBackendUnavailable wrapping resilience.ErrOpen),
// every retry is funded by the shared budget (empty ⇒ the attempt loop is
// abandoned as budget-exhausted), and a 429/503 Retry-After header replaces
// the linear backoff, capped at maxServerBackoff and the context deadline.
func (b *HTTPBackend) do(ctx context.Context, u, rangeHdr string, want ...int) (*http.Response, error) {
	var lastErr error
	var wait time.Duration // server-directed backoff from Retry-After
	for attempt := 0; attempt < b.attempts; attempt++ {
		// A canceled context aborts the budget immediately and surfaces
		// ctx.Err() unmarked: cancellation is the caller's decision, not a
		// backend failure, and must not trip the failover taxonomy.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			// An open breaker rejects the request at Allow anyway; fail fast
			// before spending a shared budget token and sleeping the backoff,
			// so a brownout doesn't drain the budget on doomed attempts. A
			// probe-due breaker (ProbeIn elapsed) falls through so this retry
			// can perform the half-open probe.
			if br := b.breaker(); br != nil {
				if bs := br.Snapshot(); bs.State == resilience.StateOpen && bs.ProbeIn > 0 {
					return nil, backendErrf("GET %s: %w after %d attempts, last: %v",
						u, resilience.ErrOpen, attempt, lastErr)
				}
			}
			if !b.budget().Withdraw() {
				return nil, backendErrf("GET %s: %w after %d attempts, last: %v",
					u, resilience.ErrBudgetExhausted, attempt, lastErr)
			}
			// Server-directed wait when the last response carried
			// Retry-After, otherwise a deterministic linear backoff: long
			// enough to skate over a broken keep-alive connection, short
			// enough for tests.
			d := wait
			if d <= 0 {
				d = time.Duration(attempt) * 10 * time.Millisecond
			} else if d > maxServerBackoff {
				d = maxServerBackoff
			}
			// ctx.Done bounds the sleep at the deadline. Clamping d to the
			// time left instead would race the two timers, and a retry that
			// won would reach the server with no time to be answered.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		wait = 0
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, backendErrf("GET %s: %w", u, err)
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		var tok resilience.Token
		if br := b.breaker(); br != nil {
			var aerr error
			if tok, aerr = br.Allow(); aerr != nil {
				return nil, backendErrf("GET %s: %w", u, aerr)
			}
		}
		resp, err := b.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				// Release a granted probe without a verdict: caller-side
				// cancellation says nothing about the dependency.
				if br := b.breaker(); br != nil {
					br.Cancel(tok)
				}
				return nil, ctx.Err()
			}
			b.record(tok, err)
			lastErr = err
			continue
		}
		// The server answered: 5xx and 429 count against the breaker,
		// anything else (including 404) is evidence of health.
		transient := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		if transient {
			b.record(tok, fmt.Errorf("%s", resp.Status))
		} else {
			b.record(tok, nil)
		}
		for _, w := range want {
			if resp.StatusCode == w {
				return resp, nil
			}
		}
		wait = retryAfterWait(resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone:
			return nil, notExistf("dataset: GET %s: %s", u, resp.Status)
		case transient:
			lastErr = fmt.Errorf("%s", resp.Status)
			continue
		default:
			return nil, backendErrf("GET %s: unexpected status %s", u, resp.Status)
		}
	}
	return nil, backendErrf("GET %s: %d attempts failed, last: %w", u, b.attempts, lastErr)
}

// Open implements Backend without touching the network: a missing object or
// a dead server shows on the first ReadAt.
func (b *HTTPBackend) Open(ctx context.Context, name string) (Object, error) {
	return &httpObject{be: b, url: b.objectURL(name)}, nil
}

// ReadFile implements Backend.
func (b *HTTPBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	u := b.objectURL(name)
	resp, err := b.do(ctx, u, "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Cancellation mid-body is the caller aborting, not the backend
		// failing; keep it out of the ErrBackendUnavailable taxonomy.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, backendErrf("GET %s: reading body: %w", u, err)
	}
	b.c.reads.Add(1)
	b.c.readBytes.Add(int64(len(data)))
	return data, nil
}

// List implements Backend. Plain HTTP servers expose no portable listing
// protocol, and the dataset layout never needs one: every slice is found
// through the index files. Kept unimplemented rather than scraping HTML
// directory pages.
func (b *HTTPBackend) List(ctx context.Context, dir string) ([]string, error) {
	return nil, backendErrf("http backend does not support listing (reads are index-driven)")
}

// Stats implements Backend.
func (b *HTTPBackend) Stats() Stats {
	s := b.c.stats(b.Scheme(), b.URL())
	if b.res != nil {
		rs := b.res.Snapshot()
		s.BreakerState = rs.BreakerState
		s.BreakerTrips = rs.BreakerTrips
		s.BreakerProbes = rs.BreakerProbes
		s.RetryBudgetSpent = rs.BudgetSpent
		s.RetryBudgetDenied = rs.BudgetDenied
		s.HedgedReads = rs.Hedges
		s.HedgeWins = rs.HedgeWins
	}
	return s
}

// Close implements Backend: it drops the owned transport's idle connections.
// A caller-supplied client may serve other backends and is left alone.
func (b *HTTPBackend) Close() error {
	if b.owned != nil {
		b.owned.CloseIdleConnections()
	}
	return nil
}

// httpObject is an Object over one remote file.
type httpObject struct {
	be  *HTTPBackend
	url string
}

// parseContentRange parses the Content-Range of a 206 response,
// "bytes <start>-<end>/<total>" with 0 <= start <= end < total, into the
// range's first byte and the object's length. Anything else — another unit,
// an unknown ("*") total, an inverted or overlong range — is an error: the
// reads need the total to tell the object's end from a body cut short.
func parseContentRange(h string) (start, total int64, err error) {
	var end int64
	if _, err := fmt.Sscanf(h, "bytes %d-%d/%d", &start, &end, &total); err != nil || start < 0 || start > end || end >= total {
		return 0, 0, fmt.Errorf("dataset: invalid Content-Range %q", h)
	}
	return start, total, nil
}

// ReadAt implements Object with one ranged GET per call. The reader filters
// issue window- or slice-sized reads, so per-call overhead is amortized over
// kilobytes — and the block cache turns repeat visits into memory copies.
// With a hedger attached, a read that outlives the latency threshold races
// a second identical GET; the attempts write private buffers so the loser
// can finish (or be canceled) without touching the winner's result.
func (o *httpObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	h := o.be.hedger()
	if h == nil {
		return o.readAt(ctx, p, off, &o.be.c)
	}
	type ranged struct {
		buf []byte
		n   int
		err error     // io.EOF rides along with valid short reads
		io  *counters // the attempt's private I/O tally
	}
	r, err := resilience.Hedge(ctx, h, func(ctx context.Context) (ranged, error) {
		buf := make([]byte, len(p))
		var c counters
		n, err := o.readAt(ctx, buf, off, &c)
		if err != nil && err != io.EOF {
			return ranged{}, err
		}
		return ranged{buf, n, err, &c}, nil
	})
	if err != nil {
		return 0, err
	}
	// Only the winning attempt's I/O counts in the backend report: the
	// loser's transfer never reaches a caller, and counting both would make
	// reads/bytes stop reconciling with data returned (HedgeWins already
	// tallies the race itself).
	o.be.c.reads.Add(r.io.reads.Load())
	o.be.c.readBytes.Add(r.io.readBytes.Load())
	copy(p, r.buf[:r.n])
	return r.n, r.err
}

func (o *httpObject) readAt(ctx context.Context, p []byte, off int64, c *counters) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	rangeHdr := fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1)
	resp, err := o.be.do(ctx, o.url, rangeHdr,
		http.StatusPartialContent, http.StatusOK, http.StatusRequestedRangeNotSatisfiable)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// The response that carries the data also says how long the object is,
	// and so how many of the len(p) bytes exist.
	total := resp.ContentLength // 200: the body is the whole object
	switch resp.StatusCode {
	case http.StatusRequestedRangeNotSatisfiable:
		return 0, io.EOF // off is at or past the object's end
	case http.StatusPartialContent:
		var start int64
		if start, total, err = parseContentRange(resp.Header.Get("Content-Range")); err != nil || start != off {
			return 0, backendErrf("GET %s: range %s answered with Content-Range %q",
				o.url, rangeHdr, resp.Header.Get("Content-Range"))
		}
	case http.StatusOK:
		// The server ignored the Range header; accept only a whole-object
		// read, otherwise every window read would transfer the full file.
		if off != 0 || total < 0 || total > int64(len(p)) {
			return 0, backendErrf("GET %s: server does not support range requests", o.url)
		}
	}
	var atEnd error
	if avail := total - off; avail <= int64(len(p)) {
		p, atEnd = p[:avail], io.EOF // the read reaches the object's end, full or short
	}
	n, err := io.ReadFull(resp.Body, p)
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return n, cerr // caller aborted mid-body; not a backend failure
		}
		// A body shorter than the server announced is a cut connection, not
		// a short object.
		return n, backendErrf("GET %s: reading range %s: %w", o.url, rangeHdr, err)
	}
	return n, atEnd
}

// Close implements Object.
func (o *httpObject) Close() error { return nil }

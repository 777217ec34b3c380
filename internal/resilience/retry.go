package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Retry is the one retry schedule every unreliable dependency uses: at most
// Attempts tries in all, the first included, waiting Base·2^(n−1) before
// retry n, capped at Max. A zero field selects its default: Attempts the
// caller's (3 for the HTTP backend; 1, single-shot sends, for TCP links),
// Base 10ms, Max 1s.
type Retry struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

// Backoff returns the wait before retry n (1-based): Base·2^(n−1) capped at
// Max, plus up to 50% jitter drawn from rng when rng is non-nil.
func (r Retry) Backoff(n int, rng *rand.Rand) time.Duration {
	d, max := r.Base, r.Max
	if d <= 0 {
		d = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if rng != nil {
		d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	}
	return d
}

// Jitter returns the backoff jitter source of one ordered pair of nodes. It
// is seeded from the pair alone, so a chaos run reproduces exactly while the
// two directions of a link draw different waits.
func Jitter(from, to int) *rand.Rand {
	return rand.New(rand.NewSource(1<<16 ^ int64(from)<<8 ^ int64(to)))
}

// permanent marks an attempt error that another attempt cannot fix.
type permanent struct{ error }

// Permanent wraps an attempt's error so Do returns it at once, unwrapped.
func Permanent(err error) error { return permanent{err} }

// Do runs try until it succeeds, returns a Permanent error, or the policy
// ends the loop. Breaker admission stays with the caller: Do only reads s's
// breaker. Before each retry Do
//   - stops when s's breaker is open with no probe due, before spending a
//     token, so a brownout does not drain the shared budget on doomed tries;
//   - withdraws one token from s's budget, and stops when it is empty;
//   - calls onRetry (nil: uncounted);
//   - sleeps the wait the last try returned or, when that is zero, the
//     backoff jittered by rng (nil: no jitter), and returns ctx.Err() when
//     ctx ends first.
//
// try gets the 0-based attempt number. A ctx already done before an
// attempt ends the loop with ctx.Err(). A loop that retried and still
// failed says after how many attempts; a single-shot loop returns try's
// error as it is.
func (r Retry) Do(ctx context.Context, s *Set, rng *rand.Rand, onRetry func(), try func(attempt int) (wait time.Duration, err error)) error {
	attempts := max(r.Attempts, 1)
	var wait time.Duration
	var last error
	for n := 0; n < attempts; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n > 0 {
			if s.ProbeIn() > 0 {
				return fmt.Errorf("%w after %d attempts, last: %w", ErrOpen, n, last)
			}
			if s != nil && !s.Budget.Withdraw() {
				return fmt.Errorf("%w after %d attempts, last: %w", ErrBudgetExhausted, n, last)
			}
			if onRetry != nil {
				onRetry()
			}
			if wait <= 0 {
				wait = r.Backoff(n, rng)
			}
			// ctx.Done bounds the sleep at the deadline. Clamping the wait to
			// the time left instead would race the two timers, and a retry
			// that won would reach the dependency with no time to answer.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		}
		var err error
		if wait, err = try(n); err == nil {
			return nil
		}
		if p, ok := err.(permanent); ok {
			return p.error
		}
		last = err
	}
	if attempts == 1 {
		return last
	}
	return fmt.Errorf("after %d attempts: %w", attempts, last)
}

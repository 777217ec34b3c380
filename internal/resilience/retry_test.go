package resilience

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestParseRetry(t *testing.T) {
	for _, s := range []string{"", "0"} {
		if r, err := ParseRetry(s); err != nil || r != (Retry{}) {
			t.Errorf("ParseRetry(%q) = %+v, %v, want the zero schedule", s, r, err)
		}
	}
	if r, err := ParseRetry("1"); err != nil || r != (Retry{Attempts: 1}) {
		t.Errorf("ParseRetry(\"1\") = %+v, %v, want single-shot", r, err)
	}
	r, err := ParseRetry("5,20ms,2s")
	if err != nil {
		t.Fatal(err)
	}
	if r != (Retry{Attempts: 5, Base: 20 * time.Millisecond, Max: 2 * time.Second}) {
		t.Fatalf("ParseRetry full spec = %+v", r)
	}
	if r, err := ParseRetry("3"); err != nil || r.Attempts != 3 || r.Base != 0 {
		t.Errorf("ParseRetry(\"3\") = %+v, %v", r, err)
	}
	for _, s := range []string{"x", "-2", "0,5ms", "5,nope", "5,20ms,bad", "5,1ms,1s,extra"} {
		if _, err := ParseRetry(s); err == nil {
			t.Errorf("ParseRetry(%q) accepted", s)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	r := Retry{Attempts: 10, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	// Without jitter: 10, 20, 40, 80, 80, ...
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := r.Backoff(i+1, nil); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// With jitter: bounded by 1.5x the unjittered delay, and deterministic
	// per seed.
	rng1 := rand.New(rand.NewSource(7))
	rng2 := rand.New(rand.NewSource(7))
	for a := 1; a <= 6; a++ {
		d1, d2 := r.Backoff(a, rng1), r.Backoff(a, rng2)
		if d1 != d2 {
			t.Fatalf("Backoff(%d) not deterministic per seed: %v vs %v", a, d1, d2)
		}
		base := r.Backoff(a, nil)
		if d1 < base || d1 > base+base/2 {
			t.Errorf("Backoff(%d) = %v outside [%v, %v]", a, d1, base, base+base/2)
		}
	}
	// Defaults when zero-valued.
	zr := Retry{Attempts: 2}
	if zr.Backoff(1, nil) != 10*time.Millisecond {
		t.Errorf("default base = %v, want 10ms", zr.Backoff(1, nil))
	}
	if zr.Backoff(20, nil) != time.Second {
		t.Errorf("default cap = %v, want 1s", zr.Backoff(20, nil))
	}
	// A retry count far past the doubling range still lands on the cap.
	if got := zr.Backoff(200, nil); got != time.Second {
		t.Errorf("Backoff(200) = %v, want the 1s cap", got)
	}
}

// TestRetrySingleShot pins what "no retries" means: the zero schedule and
// one attempt try once and return the attempt's error as it is; two
// attempts try twice.
func TestRetrySingleShot(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		r    Retry
		want int
	}{{Retry{}, 1}, {Retry{Attempts: 1}, 1}, {Retry{Attempts: 2, Base: time.Microsecond}, 2}} {
		calls := 0
		err := tc.r.Do(context.Background(), nil, nil, nil, func(int) (time.Duration, error) {
			calls++
			return 0, boom
		})
		if calls != tc.want || !errors.Is(err, boom) {
			t.Errorf("%+v: %d calls, err %v; want %d calls failing with boom", tc.r, calls, err, tc.want)
		}
		if tc.want == 1 && err != boom {
			t.Errorf("%+v: single-shot error wrapped: %v", tc.r, err)
		}
	}
}

// TestPairRNGBackoffDeterminism pins the reproducibility contract of the links'
// jittered backoff: for a fixed schedule and ordered node pair, two
// independent runs draw the identical backoff sequence, and distinct node
// pairs draw de-correlated ones.
func TestPairRNGBackoffDeterminism(t *testing.T) {
	r := Retry{Attempts: 6, Base: 10 * time.Millisecond, Max: 500 * time.Millisecond}
	seq := func(r Retry, from, to int) []time.Duration {
		rng := Jitter(from, to) // fresh source = fresh run
		out := make([]time.Duration, 0, 5)
		for a := 1; a <= 5; a++ {
			out = append(out, r.Backoff(a, rng))
		}
		return out
	}
	run1, run2 := seq(r, 2, 5), seq(r, 2, 5)
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("attempt %d: run1 %v != run2 %v for the same node pair", i+1, run1[i], run2[i])
		}
	}
	other := seq(r, 5, 2) // the reversed pair must not share the jitter stream
	same := true
	for i := range run1 {
		if run1[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("node pairs (2,5) and (5,2) drew identical jitter sequences")
	}
	// Another schedule on the same pair is just as deterministic.
	zr := Retry{Attempts: 3, Base: time.Millisecond}
	a, b := seq(zr, 1, 2), seq(zr, 1, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestRetryLoopOwnsThePolicy walks the loop's steps one by one: the
// budget funds each retry, each retry is counted, the attempt's own wait
// replaces the backoff, and exhaustion says after how many attempts.
func TestRetryLoopOwnsThePolicy(t *testing.T) {
	boom := errors.New("boom")
	set := &Set{Budget: NewRetryBudget(10, 0.1)}
	r := Retry{Attempts: 4, Base: time.Hour} // a backoff sleep would hang the test
	retries, calls := 0, 0
	err := r.Do(context.Background(), set, nil, func() { retries++ }, func(n int) (time.Duration, error) {
		if n != calls {
			t.Errorf("attempt %d numbered %d", calls, n)
		}
		calls++
		return time.Microsecond, boom
	})
	if calls != 4 || retries != 3 || set.Budget.Spent() != 3 {
		t.Fatalf("calls=%d retries=%d spent=%d, want 4, 3, 3", calls, retries, set.Budget.Spent())
	}
	if !errors.Is(err, boom) || err.Error() != "after 4 attempts: boom" {
		t.Fatalf("err = %v, want after 4 attempts: boom", err)
	}

	// Success ends the loop; Permanent ends it with the inner error.
	calls = 0
	if err := r.Do(context.Background(), nil, nil, nil, func(int) (time.Duration, error) {
		calls++
		if calls == 2 {
			return 0, nil
		}
		return time.Microsecond, boom
	}); err != nil || calls != 2 {
		t.Fatalf("success on retry: calls=%d err=%v", calls, err)
	}
	calls = 0
	if err := r.Do(context.Background(), nil, nil, nil, func(int) (time.Duration, error) {
		calls++
		return time.Microsecond, Permanent(boom)
	}); err != boom || calls != 1 {
		t.Fatalf("permanent: calls=%d err=%v, want 1 and boom unwrapped", calls, err)
	}
}

func TestRetryBudgetEndsLoop(t *testing.T) {
	boom := errors.New("boom")
	set := &Set{Budget: NewRetryBudget(1, 0.1)}
	calls := 0
	err := Retry{Attempts: 5}.Do(context.Background(), set, nil, nil, func(int) (time.Duration, error) {
		calls++
		return time.Microsecond, boom
	})
	if calls != 2 || !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, boom) {
		t.Fatalf("calls=%d err=%v, want 2 calls then budget exhausted wrapping boom", calls, err)
	}
	if set.Budget.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", set.Budget.Denied())
	}
}

// TestRetryOpenBreakerSparesBudget: once the breaker is open with no probe
// due, the loop stops before it withdraws a token; once the probe is due,
// the retry goes ahead so it can be the probe.
func TestRetryOpenBreakerSparesBudget(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	set := &Set{
		Breaker: NewBreaker(BreakerConfig{ConsecFails: 1, OpenFor: time.Second, Clock: clk.Now}),
		Budget:  NewRetryBudget(10, 0.1),
	}
	try := func(int) (time.Duration, error) {
		tok, err := set.Allow()
		if err != nil {
			return 0, Permanent(err)
		}
		err = errors.New("down")
		set.Record(tok, err)
		return time.Microsecond, err
	}
	err := Retry{Attempts: 5}.Do(context.Background(), set, nil, nil, try)
	if !errors.Is(err, ErrOpen) || set.Budget.Spent() != 0 {
		t.Fatalf("err=%v spent=%d, want ErrOpen and no token spent", err, set.Budget.Spent())
	}
	clk.Advance(time.Second) // probe due
	calls := 0
	err = Retry{Attempts: 2}.Do(context.Background(), set, nil, nil, func(n int) (time.Duration, error) {
		calls++
		if n == 0 {
			return time.Microsecond, errors.New("transient")
		}
		tok, aerr := set.Allow()
		if aerr != nil {
			return 0, Permanent(aerr)
		}
		set.Record(tok, nil)
		return 0, nil
	})
	if err != nil || calls != 2 || set.Breaker.State() != StateClosed {
		t.Fatalf("probe retry: err=%v calls=%d state=%s, want nil, 2, closed", err, calls, set.Breaker.State())
	}
}

func TestRetryAbortsOnContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry{Attempts: 3, Base: time.Hour}.Do(ctx, nil, nil, nil, func(int) (time.Duration, error) {
		calls++
		cancel()
		return 0, errors.New("boom")
	})
	if err != context.Canceled || calls != 1 {
		t.Fatalf("err=%v calls=%d, want context.Canceled after one call", err, calls)
	}
	if err := (Retry{}).Do(ctx, nil, nil, nil, func(int) (time.Duration, error) {
		t.Fatal("attempt ran under a done context")
		return 0, nil
	}); err != context.Canceled {
		t.Fatalf("done ctx: err=%v", err)
	}
}

// TestRetryStressRace runs many loops against one shared set at once, as
// the HTTP backend's readers and a link's copies do. Run under -race; every
// granted retry must have been funded.
func TestRetryStressRace(t *testing.T) {
	set := &Set{
		Breaker: NewBreaker(BreakerConfig{ConsecFails: 1000}),
		Budget:  NewRetryBudget(8, 0.25),
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	successes := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				fail := rng.Intn(3) == 0
				err := Retry{Attempts: 3, Base: time.Microsecond}.Do(context.Background(), set, rng, nil, func(int) (time.Duration, error) {
					tok, err := set.Allow()
					if err != nil {
						return 0, Permanent(err)
					}
					if fail {
						err = errors.New("flaky")
					}
					set.Record(tok, err)
					return 0, err
				})
				if err == nil {
					mu.Lock()
					successes++
					mu.Unlock()
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	if got, max := set.Budget.Spent(), int64(8+successes/4); got > max {
		t.Fatalf("spent %d retries but only %d were funded", got, max)
	}
}

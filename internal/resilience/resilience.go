// Package resilience provides the failure-control primitives the serving
// stack wires between the pipeline and its unreliable dependencies — remote
// storage backends and TCP peer links:
//
//   - Breaker: a closed/open/half-open circuit breaker that trips on a
//     sliding error-rate window or a consecutive-failure run, fast-failing
//     callers while the dependency is sick and probing it on a deterministic
//     schedule.
//   - RetryBudget: a token bucket shared by every caller of one dependency.
//     Retries spend tokens and successes replenish them, so a brownout can
//     never amplify into a retry storm — the total retry traffic against a
//     sick dependency is capped regardless of how many readers are stuck.
//   - Hedger: tail-latency insurance for range reads. When a request has
//     not answered within a threshold a second identical request is
//     launched; the first response wins and the loser is canceled.
//   - Retry: the one retry schedule, and Retry.Do the one retry loop, that
//     the HTTP backend's requests and the TCP links' dials and sends run
//     under, gated by the breaker and funded by the budget.
//
// All of them are deterministic given their configuration and an injectable
// clock, so chaos tests reproduce bit-identically under -race.
package resilience

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrOpen marks a call rejected because the circuit breaker is open: the
// dependency kept failing and is being given time to recover. Callers
// translate it into their own taxonomy (the dataset layer wraps it in
// ErrBackendUnavailable; the TCP transport converts it into copy failover).
var ErrOpen = errors.New("resilience: circuit open")

// ErrBudgetExhausted marks a retry abandoned because the shared retry
// budget ran dry — enough retries are already in flight against this
// dependency that adding more would amplify the failure.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// Policy is the parsed flag-level configuration of one dependency's
// resilience set. Nil sub-configs disable the corresponding primitive and a
// zero Retry keeps each caller's default schedule, so the zero value is a
// no-op policy.
type Policy struct {
	Retry      Retry
	Breaker    *BreakerConfig
	Budget     *BudgetConfig
	HedgeAfter time.Duration
}

// Enabled reports whether the policy asks for anything at all.
func (p *Policy) Enabled() bool {
	return p != nil && (p.Retry != Retry{} || p.Breaker != nil || p.Budget != nil || p.HedgeAfter > 0)
}

// NewSet instantiates the policy's primitives. A nil or empty policy
// returns nil, which every consumer treats as "resilience off".
func (p *Policy) NewSet() *Set {
	if !p.Enabled() {
		return nil
	}
	s := &Set{Retry: p.Retry}
	if p.Breaker != nil {
		s.Breaker = NewBreaker(*p.Breaker)
	}
	if p.Budget != nil {
		s.Budget = NewRetryBudget(p.Budget.Tokens, p.Budget.Ratio)
	}
	if p.HedgeAfter > 0 {
		s.Hedger = &Hedger{After: p.HedgeAfter}
	}
	return s
}

// Set is one dependency's live resilience state: its retry schedule, at
// most one breaker, one shared retry budget and one hedger. Any pointer may
// be nil, and every method is safe on a nil set.
type Set struct {
	Retry   Retry
	Breaker *Breaker
	Budget  *RetryBudget
	Hedger  *Hedger
}

// Allow asks the set's breaker, if any, to admit one call (see
// Breaker.Allow).
func (s *Set) Allow() (Token, error) {
	if s == nil || s.Breaker == nil {
		return Token{}, nil
	}
	return s.Breaker.Allow()
}

// Record reports one call's outcome to the breaker under the token its
// Allow granted and, on success, credits the retry budget.
func (s *Set) Record(tok Token, err error) {
	if s == nil {
		return
	}
	if s.Breaker != nil {
		s.Breaker.Record(tok, err)
	}
	if err == nil {
		s.Budget.Deposit()
	}
}

// Cancel releases a granted Allow without a verdict (see Breaker.Cancel).
func (s *Set) Cancel(tok Token) {
	if s != nil && s.Breaker != nil {
		s.Breaker.Cancel(tok)
	}
}

// ProbeIn is how long until an open breaker admits its next probe: zero
// with no breaker, when it is not open, or when the probe is due. While it
// is positive, Allow rejects every call.
func (s *Set) ProbeIn() time.Duration {
	if s == nil || s.Breaker == nil {
		return 0
	}
	return s.Breaker.Snapshot().ProbeIn
}

// SetStats is a JSON-ready snapshot of a Set, surfaced on the daemon's
// /stats endpoint and folded into per-backend run-report rows.
type SetStats struct {
	BreakerState  string  `json:"breaker_state,omitempty"`
	BreakerTrips  int64   `json:"breaker_trips,omitempty"`
	BreakerProbes int64   `json:"breaker_probes,omitempty"`
	BudgetTokens  float64 `json:"budget_tokens,omitempty"`
	BudgetSpent   int64   `json:"budget_spent,omitempty"`
	BudgetDenied  int64   `json:"budget_denied,omitempty"`
	Hedges        int64   `json:"hedges,omitempty"`
	HedgeWins     int64   `json:"hedge_wins,omitempty"`
}

// Snapshot collects the set's counters. Safe on a nil set (zero stats).
func (s *Set) Snapshot() SetStats {
	var st SetStats
	if s == nil {
		return st
	}
	if s.Breaker != nil {
		bs := s.Breaker.Snapshot()
		st.BreakerState = bs.State
		st.BreakerTrips = bs.Trips
		st.BreakerProbes = bs.Probes
	}
	if s.Budget != nil {
		st.BudgetTokens = s.Budget.Tokens()
		st.BudgetSpent = s.Budget.Spent()
		st.BudgetDenied = s.Budget.Denied()
	}
	if s.Hedger != nil {
		st.Hedges = s.Hedger.Launched()
		st.HedgeWins = s.Hedger.Wins()
	}
	return st
}

// Registry hands out one Set per dependency key (the daemon keys by backend
// host), so every job hitting the same host shares one breaker and one
// retry budget — the storm-proofing only works when the state is shared.
type Registry struct {
	policy Policy

	mu   sync.Mutex
	sets map[string]*Set
}

// NewRegistry builds a registry for the policy. A nil or disabled policy
// returns nil; every Registry method is safe on a nil receiver.
func NewRegistry(p *Policy) *Registry {
	if !p.Enabled() {
		return nil
	}
	return &Registry{policy: *p, sets: map[string]*Set{}}
}

// For returns (creating on first use) the key's shared set. Nil registry
// returns nil.
func (r *Registry) For(key string) *Set {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.sets[key]
	if !ok {
		s = r.policy.NewSet()
		r.sets[key] = s
	}
	return s
}

// Snapshot returns every tracked dependency's stats, keyed as registered.
// Nil registry returns nil.
func (r *Registry) Snapshot() map[string]SetStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sets) == 0 {
		return nil
	}
	out := make(map[string]SetStats, len(r.sets))
	for k, s := range r.sets {
		out[k] = s.Snapshot()
	}
	return out
}

// ParseBreaker parses the CLI breaker spec
// "consec[,open-for[,window,error-rate]]" — e.g. "5", "5,2s",
// "5,2s,32,0.5". consec is the consecutive-failure trip threshold; open-for
// the open→half-open probe delay; window/error-rate the sliding-window trip
// condition. "" and "0" disable the breaker (nil config).
func ParseBreaker(s string) (*BreakerConfig, error) {
	if s == "" || s == "0" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) != 1 && len(fields) != 2 && len(fields) != 4 {
		return nil, fmt.Errorf("resilience: breaker spec %q: want consec[,open-for[,window,error-rate]]", s)
	}
	var cfg BreakerConfig
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("resilience: invalid breaker consecutive-failure threshold %q", fields[0])
	}
	cfg.ConsecFails = n
	if len(fields) > 1 {
		d, err := time.ParseDuration(fields[1])
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("resilience: invalid breaker open-for duration %q", fields[1])
		}
		cfg.OpenFor = d
	}
	if len(fields) > 2 {
		w, err := strconv.Atoi(fields[2])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("resilience: invalid breaker window %q", fields[2])
		}
		cfg.Window = w
		rate, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || rate <= 0 || rate > 1 {
			return nil, fmt.Errorf("resilience: invalid breaker error rate %q (want 0 < rate <= 1)", fields[3])
		}
		cfg.ErrorRate = rate
	}
	return &cfg, nil
}

// ParseBudget parses the CLI retry-budget spec "tokens[,ratio]" — e.g.
// "10", "10,0.2". tokens is the bucket capacity (whole retries available
// from a full bucket); ratio is the fraction of a token returned per
// success. "" and "0" disable the budget (nil config).
func ParseBudget(s string) (*BudgetConfig, error) {
	if s == "" || s == "0" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) > 2 {
		return nil, fmt.Errorf("resilience: budget spec %q: want tokens[,ratio]", s)
	}
	var cfg BudgetConfig
	tokens, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || tokens < 1 {
		return nil, fmt.Errorf("resilience: invalid retry budget %q (want tokens >= 1)", fields[0])
	}
	cfg.Tokens = tokens
	if len(fields) > 1 {
		ratio, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || ratio <= 0 || ratio > 1 {
			return nil, fmt.Errorf("resilience: invalid budget replenish ratio %q (want 0 < ratio <= 1)", fields[1])
		}
		cfg.Ratio = ratio
	}
	return &cfg, nil
}

// ParseRetry parses the CLI retry spec "attempts[,base[,max]]" — e.g. "5",
// "5,20ms", "5,20ms,2s" — into a schedule. attempts counts every try, the
// first included, so "1" is single-shot. "" and "0" give the zero schedule:
// each caller's default.
func ParseRetry(s string) (Retry, error) {
	if s == "" || s == "0" {
		return Retry{}, nil
	}
	fields := strings.Split(s, ",")
	if len(fields) > 3 {
		return Retry{}, fmt.Errorf("resilience: retry spec %q: want attempts[,base[,max]]", s)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 1 {
		return Retry{}, fmt.Errorf("resilience: invalid retry attempts %q (want >= 1)", fields[0])
	}
	r := Retry{Attempts: n}
	if len(fields) > 1 {
		if r.Base, err = time.ParseDuration(fields[1]); err != nil || r.Base < 0 {
			return Retry{}, fmt.Errorf("resilience: invalid retry base delay %q", fields[1])
		}
	}
	if len(fields) > 2 {
		if r.Max, err = time.ParseDuration(fields[2]); err != nil || r.Max < 0 {
			return Retry{}, fmt.Errorf("resilience: invalid retry max delay %q", fields[2])
		}
	}
	return r, nil
}

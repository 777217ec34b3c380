// Package cliflags holds the flag-syntax parsers of the command-line
// options that are not part of a run spec (internal/runspec binds those):
// the checkpoint flags, the resilience flags shared by the analysis CLI and
// the daemon, and the daemon's own flags.
package cliflags

import (
	"fmt"
	"time"

	"haralick4d/internal/resilience"
	"haralick4d/internal/server"
)

// ParseRestartFlags validates the checkpoint flag subset and converts the
// -checkpoint-interval string; empty selects the journal's own 1s default.
// Violations are usage errors — the CLI prints them with its usage and exits 2.
func ParseRestartFlags(checkpoint string, resume bool, intervalS string) (time.Duration, error) {
	if resume && checkpoint == "" {
		return 0, fmt.Errorf("-resume requires -checkpoint with the journal path of the interrupted run")
	}
	if intervalS == "" {
		return 0, nil
	}
	if checkpoint == "" {
		return 0, fmt.Errorf("-checkpoint-interval without -checkpoint has nothing to sync")
	}
	d, err := time.ParseDuration(intervalS)
	if err != nil {
		return 0, fmt.Errorf("invalid -checkpoint-interval %q: %v", intervalS, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("-checkpoint-interval must be positive, got %s", d)
	}
	return d, nil
}

// ParseResilienceFlags validates the resilience flags: the analysis CLI's
// -retry "attempts[,base[,max]]", and -breaker
// "consec[,open-for[,window,rate]]", -retry-budget "tokens[,ratio]" and the
// -hedge-after duration, which the daemon shares (it passes "" for -retry).
// Empty strings keep each default; a policy with nothing set comes back nil
// so callers can pass it straight through. Violations are usage errors.
func ParseResilienceFlags(retryS, breakerS, budgetS, hedgeS string) (pol *resilience.Policy, err error) {
	var p resilience.Policy
	if p.Retry, err = resilience.ParseRetry(retryS); err != nil {
		return nil, fmt.Errorf("-retry: %v", err)
	}
	if p.Breaker, err = resilience.ParseBreaker(breakerS); err != nil {
		return nil, fmt.Errorf("-breaker: %v", err)
	}
	if p.Budget, err = resilience.ParseBudget(budgetS); err != nil {
		return nil, fmt.Errorf("-retry-budget: %v", err)
	}
	if hedgeS != "" && hedgeS != "0" {
		d, perr := time.ParseDuration(hedgeS)
		if perr != nil || d <= 0 {
			return nil, fmt.Errorf("invalid -hedge-after %q (want a positive duration like 200ms)", hedgeS)
		}
		p.HedgeAfter = d
	}
	if p.Enabled() {
		pol = &p
	}
	return pol, nil
}

// ParseServeFlags validates the daemon flag subset and converts the
// duration strings into a daemon configuration. Zero counts select the
// server package's documented defaults; violations are usage errors (print
// with flag.Usage(), exit 2).
func ParseServeFlags(addr, stateDir string, maxJobs, maxQueue int, drainS, stallS string) (*server.Config, error) {
	if addr == "" {
		return nil, fmt.Errorf("-serve-addr is required (e.g. localhost:7474)")
	}
	if stateDir == "" {
		return nil, fmt.Errorf("-state-dir is required: it holds the job journal the daemon recovers from")
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"-max-jobs", maxJobs}, {"-max-queue", maxQueue},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("%s must not be negative, got %d", c.name, c.v)
		}
	}
	sf := &server.Config{
		Addr: addr, StateDir: stateDir,
		MaxJobs: maxJobs, MaxQueue: maxQueue,
	}
	if drainS != "" {
		d, err := time.ParseDuration(drainS)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("invalid -drain-timeout %q (want a positive duration like 30s)", drainS)
		}
		sf.DrainTimeout = d
	}
	if stallS != "" {
		d, err := time.ParseDuration(stallS)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("invalid -stall-timeout %q (want a duration like 2m; 0 is off)", stallS)
		}
		sf.StallTimeout = d
	}
	return sf, nil
}

// Package cliflags holds flag-parsing helpers shared by the command-line
// tools, so the two binaries that expose the checkpoint/watchdog surface
// validate it identically.
package cliflags

import (
	"fmt"
	"strconv"
	"time"

	"haralick4d/internal/dataset"
	"haralick4d/internal/readahead"
	"haralick4d/internal/resilience"
)

// ParseReadAhead reads the value of -readahead: a count of windows, or
// "auto" for readahead.Auto. Negative counts parse; the CLIs'
// validateCountFlags rejects them with the other count flags.
func ParseReadAhead(s string) (int, error) {
	if s == "auto" {
		return readahead.Auto, nil
	}
	return strconv.Atoi(s)
}

// ParseRestartFlags validates the checkpoint/restart and watchdog flag
// subset and converts the duration strings. Empty strings select the
// defaults: interval 0 (the journal's own 1s default) and stall 0
// (watchdog disabled). Violations are usage errors — the CLIs print them
// with flag.Usage() and exit 2.
func ParseRestartFlags(checkpoint string, resume bool, intervalS, stallS string) (interval, stall time.Duration, err error) {
	if resume && checkpoint == "" {
		return 0, 0, fmt.Errorf("-resume requires -checkpoint with the journal path of the interrupted run")
	}
	if intervalS != "" {
		if checkpoint == "" {
			return 0, 0, fmt.Errorf("-checkpoint-interval without -checkpoint has nothing to sync")
		}
		d, perr := time.ParseDuration(intervalS)
		if perr != nil {
			return 0, 0, fmt.Errorf("invalid -checkpoint-interval %q: %v", intervalS, perr)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("-checkpoint-interval must be positive, got %s", d)
		}
		interval = d
	}
	if stallS != "" {
		d, perr := time.ParseDuration(stallS)
		if perr != nil {
			return 0, 0, fmt.Errorf("invalid -stall-timeout %q: %v", stallS, perr)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("-stall-timeout must be positive, got %s", d)
		}
		stall = d
	}
	return interval, stall, nil
}

// ParseBackendFlags validates the dataset-backend flag subset: the dataset
// URL (-dataset-url, or a positional directory) and the block-cache sizing
// (-cache-blocks, -cache-block-size). Violations are usage errors — the CLIs
// print them with flag.Usage() and exit 2. Returns the URL options to pass
// to dataset.OpenURL.
func ParseBackendFlags(url string, cacheBlocks, cacheBlockSize int) (*dataset.URLOptions, error) {
	if _, _, err := dataset.ParseURL(url); err != nil {
		return nil, err
	}
	if cacheBlocks < 0 {
		return nil, fmt.Errorf("-cache-blocks must not be negative, got %d", cacheBlocks)
	}
	if cacheBlockSize < 0 {
		return nil, fmt.Errorf("-cache-block-size must not be negative, got %d", cacheBlockSize)
	}
	if cacheBlockSize > 0 && cacheBlocks == 0 {
		return nil, fmt.Errorf("-cache-block-size without -cache-blocks has no cache to size")
	}
	return &dataset.URLOptions{CacheBlocks: cacheBlocks, CacheBlockSize: cacheBlockSize}, nil
}

// ParseResilienceFlags validates the resilience flag subset shared by the
// analysis CLI and the daemon: -breaker "consec[,open-for[,window,rate]]",
// -retry-budget "tokens[,ratio]", -hedge-after and -deadline duration
// strings. Empty strings disable each primitive; a policy with nothing
// enabled comes back nil so callers can pass it straight through. Violations
// are usage errors — the CLIs print them with flag.Usage() and exit 2.
func ParseResilienceFlags(breakerS, budgetS, hedgeS, deadlineS string) (pol *resilience.Policy, deadline time.Duration, err error) {
	var p resilience.Policy
	if p.Breaker, err = resilience.ParseBreaker(breakerS); err != nil {
		return nil, 0, fmt.Errorf("-breaker: %v", err)
	}
	if p.Budget, err = resilience.ParseBudget(budgetS); err != nil {
		return nil, 0, fmt.Errorf("-retry-budget: %v", err)
	}
	if hedgeS != "" && hedgeS != "0" {
		d, perr := time.ParseDuration(hedgeS)
		if perr != nil || d <= 0 {
			return nil, 0, fmt.Errorf("invalid -hedge-after %q (want a positive duration like 200ms)", hedgeS)
		}
		p.HedgeAfter = d
	}
	if deadlineS != "" && deadlineS != "0" {
		d, perr := time.ParseDuration(deadlineS)
		if perr != nil || d <= 0 {
			return nil, 0, fmt.Errorf("invalid -deadline %q (want a positive duration like 10m)", deadlineS)
		}
		deadline = d
	}
	if p.Enabled() {
		pol = &p
	}
	return pol, deadline, nil
}

// ServeFlags is the validated `haralick4d serve` flag set.
type ServeFlags struct {
	Addr           string
	StateDir       string
	MaxJobs        int
	MaxQueue       int
	TotalReadAhead int
	TotalWorkers   int
	JobReadAhead   int
	JobWorkers     int
	DrainTimeout   time.Duration
	StallTimeout   time.Duration
	// Resilience is filled by the caller from ParseResilienceFlags; it is
	// carried here so the serve path hands one struct to server.Config.
	Resilience *resilience.Policy
}

// ParseServeFlags validates the daemon flag subset and converts the
// duration strings. Zero counts select the server package's documented
// defaults; violations are usage errors (print with flag.Usage(), exit 2).
func ParseServeFlags(addr, stateDir string, maxJobs, maxQueue, totalRA, totalWorkers, jobRA, jobWorkers int, drainS, stallS string) (*ServeFlags, error) {
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
		{"-total-readahead", totalRA}, {"-total-workers", totalWorkers},
		{"-job-quota-readahead", jobRA}, {"-job-quota-workers", jobWorkers},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("%s must not be negative, got %d", c.name, c.v)
		}
	}
	sf := &ServeFlags{
		Addr: addr, StateDir: stateDir,
		MaxJobs: maxJobs, MaxQueue: maxQueue,
		TotalReadAhead: totalRA, TotalWorkers: totalWorkers,
		JobReadAhead: jobRA, JobWorkers: jobWorkers,
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
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("invalid -stall-timeout %q (want a positive duration like 2m)", stallS)
		}
		sf.StallTimeout = d
	}
	return sf, nil
}

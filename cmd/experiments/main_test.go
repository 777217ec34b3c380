package main

import (
	"strings"
	"testing"
	"time"

	"haralick4d/internal/cliflags"
	"haralick4d/internal/readahead"
)

func TestValidateCountFlags(t *testing.T) {
	cases := []struct {
		readAhead, kernelWorkers int
		wantErr                  string
	}{
		{0, 0, ""},
		{4, 1, ""},
		{readahead.Auto, 1, ""}, // -readahead auto is no count
		{-1, 1, "-readahead must be >= 0, got -1"},
		{4, -1, "-kernel-workers must be >= 0, got -1"},
	}
	for _, c := range cases {
		err := validateCountFlags(c.readAhead, c.kernelWorkers)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("validateCountFlags(%d, %d) = %v, want nil", c.readAhead, c.kernelWorkers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("validateCountFlags(%d, %d) = %v, want %q", c.readAhead, c.kernelWorkers, err, c.wantErr)
		}
	}
}

// TestStallTimeoutFlagShape exercises the exact invocation main forwards to
// the shared parser: this binary exposes only -stall-timeout (no checkpoint
// flags — resuming a figure sweep would splice timings from two processes),
// so the checkpoint arguments are hardwired empty.
func TestStallTimeoutFlagShape(t *testing.T) {
	cases := []struct {
		stallS  string
		want    time.Duration
		wantErr string
	}{
		{stallS: ""},
		{stallS: "5m", want: 5 * time.Minute},
		{stallS: "0s", wantErr: "-stall-timeout must be positive"},
		{stallS: "-1m", wantErr: "-stall-timeout must be positive"},
		{stallS: "whenever", wantErr: "invalid -stall-timeout"},
	}
	for _, c := range cases {
		_, stall, err := cliflags.ParseRestartFlags("", false, "", c.stallS)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("stall-timeout %q: err = %v, want %q", c.stallS, err, c.wantErr)
			}
			continue
		}
		if err != nil || stall != c.want {
			t.Errorf("stall-timeout %q: got (%s, %v), want %s", c.stallS, stall, err, c.want)
		}
	}
}

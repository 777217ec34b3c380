package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/readahead"
	"haralick4d/internal/runspec"
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

// TestStallTimeoutFlagShape parses -stall-timeout the way main does: the run
// spec's duration type, then the spec's Validate. 0 is "off", as on every
// other surface.
func TestStallTimeoutFlagShape(t *testing.T) {
	cases := []struct {
		stallS  string
		want    time.Duration
		wantErr string
	}{
		{stallS: ""},
		{stallS: "5m", want: 5 * time.Minute},
		{stallS: "0s"},
		{stallS: "-1m", wantErr: "stall_timeout (-stall-timeout) must not be negative"},
		{stallS: "whenever", wantErr: `invalid value "whenever" for flag -stall-timeout`},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var spec runspec.Spec
		bindSpecFlags(fs, &spec)
		var args []string
		if c.stallS != "" {
			args = []string{"-stall-timeout", c.stallS}
		}
		err := fs.Parse(args)
		if err == nil {
			err = spec.Validate()
		}
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("stall-timeout %q: err = %v, want %q", c.stallS, err, c.wantErr)
			}
			continue
		}
		if err != nil || time.Duration(spec.StallTimeout) != c.want {
			t.Errorf("stall-timeout %q: got (%s, %v), want %s", c.stallS, time.Duration(spec.StallTimeout), err, c.want)
		}
	}
}

// TestParseReadAhead: -readahead takes a count or "auto"; a negative count
// parses (validateCountFlags rejects it) and anything else is a usage error.
func TestParseReadAhead(t *testing.T) {
	for in, want := range map[string]int{"auto": readahead.Auto, "0": 0, "64": 64, "-3": -3} {
		if got, err := parseReadAhead(in); err != nil || got != want {
			t.Errorf("parseReadAhead(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "deep", "4.5", "Auto"} {
		if got, err := parseReadAhead(bad); err == nil {
			t.Errorf("parseReadAhead(%q) accepted as %d", bad, got)
		}
	}
}

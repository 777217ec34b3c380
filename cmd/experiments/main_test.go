package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"haralick4d/internal/experiments"
	"haralick4d/internal/runspec"
)

// parseSpecFlags parses args the way main does: the engine flags bound on
// the base Spec, then the spec's one Validate.
func parseSpecFlags(args ...string) (runspec.Spec, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec := experiments.BaseSpec()
	bindSpecFlags(fs, &spec)
	err := fs.Parse(args)
	if err == nil {
		err = spec.Validate()
	}
	return spec, err
}

// TestValidateCountFlags: the count flags refuse what the run spec refuses,
// with its messages; 0 is each flag's auto.
func TestValidateCountFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-readahead", "0", "-kernel-workers", "0"}, ""},
		{[]string{"-readahead", "4", "-kernel-workers", "1"}, ""},
		{[]string{"-readahead", "-1"}, "readahead (-readahead) must not be negative, got -1"},
		{[]string{"-kernel-workers", "-1"}, "kernel_workers (-kernel-workers) must not be negative, got -1"},
		{[]string{"-cache-blocks", "64"}, "flag provided but not defined: -cache-blocks"},
	} {
		_, err := parseSpecFlags(c.args...)
		if c.wantErr == "" && err != nil || c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.wantErr)
		}
	}
}

// TestStallTimeoutFlagShape: -stall-timeout takes the run spec's duration
// type; 0 is "off", as on every other surface.
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
		var args []string
		if c.stallS != "" {
			args = []string{"-stall-timeout", c.stallS}
		}
		spec, err := parseSpecFlags(args...)
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

// TestParseReadAhead: -readahead defaults to 4 windows and takes a count or
// auto, and 0 is auto as in every run spec; anything else is a usage error.
func TestParseReadAhead(t *testing.T) {
	for in, want := range map[string]runspec.ReadAhead{"": 4, "auto": 0, "0": 0, "64": 64} {
		args := []string{"-readahead", in}
		if in == "" {
			args = nil
		}
		if spec, err := parseSpecFlags(args...); err != nil || spec.ReadAhead != want {
			t.Errorf("-readahead %q = %d, %v; want %d", in, spec.ReadAhead, err, want)
		}
	}
	for _, bad := range []string{"", "deep", "4.5", "Auto"} {
		if spec, err := parseSpecFlags("-readahead", bad); err == nil {
			t.Errorf("-readahead %q accepted as %d", bad, spec.ReadAhead)
		}
	}
}

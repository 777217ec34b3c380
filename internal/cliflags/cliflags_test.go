package cliflags

import (
	"strings"
	"testing"
	"time"

	"haralick4d/internal/readahead"
)

func TestParseRestartFlags(t *testing.T) {
	cases := []struct {
		name                 string
		checkpoint           string
		resume               bool
		intervalS, stallS    string
		wantInterval, wantSt time.Duration
		wantErr              string
	}{
		{name: "all-defaults"},
		{name: "checkpoint-only", checkpoint: "j"},
		{name: "resume", checkpoint: "j", resume: true},
		{name: "interval", checkpoint: "j", intervalS: "250ms", wantInterval: 250 * time.Millisecond},
		{name: "stall", stallS: "2m", wantSt: 2 * time.Minute},
		{name: "resume-without-checkpoint", resume: true, wantErr: "-resume requires -checkpoint"},
		{name: "interval-without-checkpoint", intervalS: "1s", wantErr: "-checkpoint-interval without -checkpoint"},
		{name: "zero-interval", checkpoint: "j", intervalS: "0s", wantErr: "-checkpoint-interval must be positive"},
		{name: "negative-interval", checkpoint: "j", intervalS: "-1s", wantErr: "-checkpoint-interval must be positive"},
		{name: "garbage-interval", checkpoint: "j", intervalS: "soon", wantErr: "invalid -checkpoint-interval"},
		{name: "zero-stall", stallS: "0s", wantErr: "-stall-timeout must be positive"},
		{name: "negative-stall", stallS: "-5s", wantErr: "-stall-timeout must be positive"},
		{name: "garbage-stall", stallS: "whenever", wantErr: "invalid -stall-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			interval, stall, err := ParseRestartFlags(tc.checkpoint, tc.resume, tc.intervalS, tc.stallS)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if interval != tc.wantInterval || stall != tc.wantSt {
				t.Fatalf("got (%s, %s), want (%s, %s)", interval, stall, tc.wantInterval, tc.wantSt)
			}
		})
	}
}

func TestParseServeFlags(t *testing.T) {
	sf, err := ParseServeFlags("localhost:0", "/tmp/state", 2, 8, 64, 4, 16, 4, "45s", "2m")
	if err != nil {
		t.Fatal(err)
	}
	if sf.DrainTimeout != 45*time.Second || sf.StallTimeout != 2*time.Minute || sf.MaxJobs != 2 {
		t.Fatalf("parsed %+v", sf)
	}
	// Zero counts are valid: they select the server package defaults.
	if _, err := ParseServeFlags("localhost:0", "/tmp/state", 0, 0, 0, 0, 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		f       func() (*ServeFlags, error)
		wantErr string
	}{
		{"no-addr", func() (*ServeFlags, error) {
			return ParseServeFlags("", "/s", 0, 0, 0, 0, 0, 0, "", "")
		}, "-serve-addr is required"},
		{"no-state-dir", func() (*ServeFlags, error) {
			return ParseServeFlags("localhost:0", "", 0, 0, 0, 0, 0, 0, "", "")
		}, "-state-dir is required"},
		{"negative-quota", func() (*ServeFlags, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, 0, 0, -1, 0, "", "")
		}, "-job-quota-readahead must not be negative"},
		{"bad-drain", func() (*ServeFlags, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, 0, 0, 0, 0, "eventually", "")
		}, "invalid -drain-timeout"},
		{"zero-drain", func() (*ServeFlags, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, 0, 0, 0, 0, "0s", "")
		}, "invalid -drain-timeout"},
		{"bad-stall", func() (*ServeFlags, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, 0, 0, 0, 0, "", "-3s")
		}, "invalid -stall-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.f(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseReadAhead: -readahead takes a count or "auto"; a negative count
// parses (the CLIs reject it with their other count flags) and anything else
// is a usage error.
func TestParseReadAhead(t *testing.T) {
	for in, want := range map[string]int{"auto": readahead.Auto, "0": 0, "64": 64, "-3": -3} {
		if got, err := ParseReadAhead(in); err != nil || got != want {
			t.Errorf("ParseReadAhead(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "deep", "4.5", "Auto"} {
		if got, err := ParseReadAhead(bad); err == nil {
			t.Errorf("ParseReadAhead(%q) accepted as %d", bad, got)
		}
	}
}

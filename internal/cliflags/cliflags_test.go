package cliflags

import (
	"strings"
	"testing"
	"time"

	"haralick4d/internal/server"
)

func TestParseRestartFlags(t *testing.T) {
	cases := []struct {
		name         string
		checkpoint   string
		resume       bool
		intervalS    string
		wantInterval time.Duration
		wantErr      string
	}{
		{name: "all-defaults"},
		{name: "checkpoint-only", checkpoint: "j"},
		{name: "resume", checkpoint: "j", resume: true},
		{name: "interval", checkpoint: "j", intervalS: "250ms", wantInterval: 250 * time.Millisecond},
		{name: "resume-without-checkpoint", resume: true, wantErr: "-resume requires -checkpoint"},
		{name: "interval-without-checkpoint", intervalS: "1s", wantErr: "-checkpoint-interval without -checkpoint"},
		{name: "zero-interval", checkpoint: "j", intervalS: "0s", wantErr: "-checkpoint-interval must be positive"},
		{name: "negative-interval", checkpoint: "j", intervalS: "-1s", wantErr: "-checkpoint-interval must be positive"},
		{name: "garbage-interval", checkpoint: "j", intervalS: "soon", wantErr: "invalid -checkpoint-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			interval, err := ParseRestartFlags(tc.checkpoint, tc.resume, tc.intervalS)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if interval != tc.wantInterval {
				t.Fatalf("got %s, want %s", interval, tc.wantInterval)
			}
		})
	}
}

func TestParseServeFlags(t *testing.T) {
	sf, err := ParseServeFlags("localhost:0", "/tmp/state", 2, 8, "45s", "2m")
	if err != nil {
		t.Fatal(err)
	}
	if sf.DrainTimeout != 45*time.Second || sf.StallTimeout != 2*time.Minute || sf.MaxJobs != 2 {
		t.Fatalf("parsed %+v", sf)
	}
	// Zero counts are valid: they select the server package defaults.
	if _, err := ParseServeFlags("localhost:0", "/tmp/state", 0, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	// A zero stall timeout is "off", as in a job spec.
	if sf, err := ParseServeFlags("localhost:0", "/tmp/state", 0, 0, "", "0s"); err != nil || sf.StallTimeout != 0 {
		t.Fatalf("-stall-timeout 0s: %+v, %v", sf, err)
	}
	cases := []struct {
		name    string
		f       func() (*server.Config, error)
		wantErr string
	}{
		{"no-addr", func() (*server.Config, error) {
			return ParseServeFlags("", "/s", 0, 0, "", "")
		}, "-serve-addr is required"},
		{"no-state-dir", func() (*server.Config, error) {
			return ParseServeFlags("localhost:0", "", 0, 0, "", "")
		}, "-state-dir is required"},
		{"negative-max-jobs", func() (*server.Config, error) {
			return ParseServeFlags("localhost:0", "/s", -1, 0, "", "")
		}, "-max-jobs must not be negative"},
		{"bad-drain", func() (*server.Config, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, "eventually", "")
		}, "invalid -drain-timeout"},
		{"zero-drain", func() (*server.Config, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, "0s", "")
		}, "invalid -drain-timeout"},
		{"bad-stall", func() (*server.Config, error) {
			return ParseServeFlags("localhost:0", "/s", 0, 0, "", "-3s")
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

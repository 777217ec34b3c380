package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// reopen opens the log at path and collects copies of its payloads.
func reopen(path string, hdr []byte) (*Log, []string, int64, error) {
	var recs []string
	l, trunc, err := OpenLog(path, hdr, 0, func(p []byte) error {
		recs = append(recs, string(p))
		return nil
	})
	return l, recs, trunc, err
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	hdr := []byte("h4d-test-log-v1")
	l, err := CreateLog(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`), []byte(`{"c":3}`)}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, trunc, err := reopen(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if trunc != 0 {
		t.Fatalf("clean log reports %d torn bytes", trunc)
	}
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i, p := range payloads {
		if string(recs[i]) != string(p) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], p)
		}
	}
	// The reopened log must accept further appends, and a second reopen must
	// see both generations.
	if err := l2.Append([]byte(`{"d":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err = reopen(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || string(recs[3]) != `{"d":4}` {
		t.Fatalf("after second generation: %d records, last %q", len(recs), recs[len(recs)-1])
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	hdr := []byte("hdr")
	l, err := CreateLog(path, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a frame header with no body.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0x12}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs, trunc, err := reopen(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if trunc != 5 {
		t.Fatalf("torn bytes = %d, want 5", trunc)
	}
	if len(recs) != 1 || recs[0] != "intact" {
		t.Fatalf("recovered %q, want the one intact record", recs)
	}
	// Appends after truncation must land on a clean frame boundary.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, recs, trunc, err = reopen(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if trunc != 0 || len(recs) != 2 || recs[1] != "after" {
		t.Fatalf("post-truncation reopen: trunc=%d recs=%q", trunc, recs)
	}
}

func TestLogHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := CreateLog(path, []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, _, err := reopen(path, []byte("v2")); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched header: err = %v, want ErrMismatch", err)
	}
}

func TestLogEmptyPayloadRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := CreateLog(path, []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted; a zero-length frame would be unscannable")
	}
}

// TestOpenLogVisitError: a visit error is OpenLog's error, and the file is
// left exactly as it was — a torn tail included.
func TestOpenLogVisitError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	l, err := CreateLog(path, []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00}) // a torn frame
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	stop := errors.New("stop at b")
	var seen []string
	_, _, err = OpenLog(path, []byte("v1"), 0, func(p []byte) error {
		seen = append(seen, string(p))
		if string(p) == "b" {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want the visit's own error", err)
	}
	if len(seen) != 2 {
		t.Fatalf("visited %q, want a then b", seen)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("a refused reopen changed the file: %d -> %d bytes", len(before), len(after))
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestMemoRoundTrip checks cells survive a close/reopen cycle and that keys
// separate fingerprints from cells.
func TestMemoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "memo.json")
	m, err := openMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.cells) != 0 {
		t.Fatalf("fresh memo has %d cells", len(m.cells))
	}
	fp := fingerprintBytes([]byte("config-a"))
	if err := m.put(memoKey(fp, "copies=2,workers=2"), memoCell{ElapsedNS: 1234}); err != nil {
		t.Fatal(err)
	}
	if err := m.put(memoKey(fp, "copies=4,workers=2"), memoCell{ElapsedNS: 99}); err != nil {
		t.Fatal(err)
	}

	re, err := openMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.cells) != 2 {
		t.Fatalf("reopened memo has %d cells, want 2", len(re.cells))
	}
	got, ok := re.get(memoKey(fp, "copies=2,workers=2"))
	if !ok || got.ElapsedNS != 1234 {
		t.Fatalf("round-trip cell = %+v ok=%v", got, ok)
	}
	if _, ok := re.get(memoKey(fingerprintBytes([]byte("config-b")), "copies=2,workers=2")); ok {
		t.Fatal("different fingerprint must not hit the same cell")
	}
}

// TestMemoCorruptIsError checks a damaged memo file fails loudly instead of
// silently recomputing every cell.
func TestMemoCorruptIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openMemo(path); err == nil {
		t.Fatal("openMemo accepted a corrupt file")
	}
}

// TestFingerprintBytesStable pins the digest so memo files stay valid across
// releases.
func TestFingerprintBytesStable(t *testing.T) {
	if got := fingerprintBytes([]byte("abc")); got != "e71fa2190541574b" {
		t.Fatalf("fingerprintBytes(abc) = %s (fnv-64a changed?)", got)
	}
	if len(fingerprintBytes(nil)) != 16 {
		t.Fatal("fingerprint must be 16 hex digits")
	}
}

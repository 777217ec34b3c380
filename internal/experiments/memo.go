package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// memoCell is one memoized trial result: the measured elapsed time of a
// parameter cell.
type memoCell struct {
	ElapsedNS int64 `json:"elapsed_ns"`
}

// memoFile is the cross-run result journal: (config fingerprint, parameter
// cell) → measured memoCell, persisted as one JSON file so repeated
// experiment sweeps reuse prior trials instead of recomputing them. Writes are
// write-through with the dataset layer's temp+rename idiom, so a killed
// sweep leaves a valid (if shorter) memo behind.
type memoFile struct {
	path string

	mu    sync.Mutex
	cells map[string]memoCell
}

// memoKey builds the canonical memo key from a config fingerprint (see
// checkpoint.Header.Fingerprint) and a cell descriptor ("copies=2,workers=2").
func memoKey(fingerprint, cell string) string { return fingerprint + "|" + cell }

// fingerprintBytes returns the short stable digest the memo keys use, for
// inputs that are not checkpoint headers (dataset generation configs).
func fingerprintBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// openMemo loads the memo at path, or starts an empty one when the file
// does not exist yet. A corrupt file is an error — silently dropping
// memoized results would turn into silent recomputation.
func openMemo(path string) (*memoFile, error) {
	m := &memoFile{path: path, cells: map[string]memoCell{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: read memo: %w", err)
	}
	if err := json.Unmarshal(data, &m.cells); err != nil {
		return nil, fmt.Errorf("experiments: memo %s corrupt: %w", path, err)
	}
	return m, nil
}

// get returns the memoized cell for key, if present.
func (m *memoFile) get(key string) (memoCell, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	return c, ok
}

// put stores the cell under key and persists the memo.
func (m *memoFile) put(key string, c memoCell) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[key] = c
	return m.flushLocked()
}

func (m *memoFile) flushLocked() error {
	data, err := json.MarshalIndent(m.cells, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(m.path), 0o755); err != nil {
		return err
	}
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.path)
}

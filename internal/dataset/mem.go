package dataset

import (
	"context"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"haralick4d/internal/volume"
)

// MemBackend serves a dataset from memory — the footnote-1 optimization for
// datasets that fit in RAM, the simulation engine's data source, and the
// test substrate that needs no disk or network. It is also a blob writer,
// so WriteMemDataset can lay out the exact on-disk format in memory.
type MemBackend struct {
	name string // registry name; "" until registered

	mu    sync.RWMutex
	files map[string][]byte
	c     counters
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string][]byte)}
}

// WriteFile stores data under the slash-separated name, replacing any
// previous content. The byte slice is retained, not copied.
func (b *MemBackend) WriteFile(name string, data []byte) error {
	b.mu.Lock()
	b.files[path.Clean(name)] = data
	b.mu.Unlock()
	return nil
}

// Scheme implements Backend.
func (b *MemBackend) Scheme() string { return "mem" }

// URL implements Backend.
func (b *MemBackend) URL() string { return "mem://" + b.name }

// Open implements Backend.
func (b *MemBackend) Open(ctx context.Context, name string) (Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	data, ok := b.files[path.Clean(name)]
	b.mu.RUnlock()
	if !ok {
		return nil, notExistf("dataset: mem object %q", name)
	}
	b.c.opens.Add(1)
	return &memObject{be: b, data: data}, nil
}

// ReadFile implements Backend.
func (b *MemBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.RLock()
	data, ok := b.files[path.Clean(name)]
	b.mu.RUnlock()
	if !ok {
		return nil, notExistf("dataset: mem object %q", name)
	}
	b.c.reads.Add(1)
	b.c.readBytes.Add(int64(len(data)))
	// Callers may retain the result; hand out a copy so a later WriteFile
	// cannot mutate it under them.
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// List implements Backend.
func (b *MemBackend) List(ctx context.Context, dir string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prefix := ""
	if dir != "" && dir != "." {
		prefix = path.Clean(dir) + "/"
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	seen := map[string]bool{}
	for name := range b.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements Backend.
func (b *MemBackend) Stats() Stats { return b.c.stats(b.Scheme(), b.URL()) }

// Close implements Backend.
func (b *MemBackend) Close() error { return nil }

// memObject is an Object over an immutable byte slice.
type memObject struct {
	be   *MemBackend
	data []byte
}

// ReadAt implements Object.
func (o *memObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("dataset: mem read at negative offset %d", off)
	}
	if off >= int64(len(o.data)) {
		return 0, io.EOF
	}
	n := copy(p, o.data[off:])
	o.be.c.reads.Add(1)
	o.be.c.readBytes.Add(int64(n))
	if off+int64(n) == int64(len(o.data)) {
		return n, io.EOF
	}
	return n, nil
}

// Close implements Object.
func (o *memObject) Close() error { return nil }

// memRegistry resolves "mem://name" URLs, so the in-memory backend plugs
// into every URL-driven surface (the façade, the CLIs, the sim engine's
// test harnesses) without new API.
var memRegistry sync.Map // name -> *MemBackend

// RegisterMem publishes the backend under "mem://name", replacing any
// previous registration of that name.
func RegisterMem(name string, b *MemBackend) {
	b.name = name
	memRegistry.Store(name, b)
}

// UnregisterMem removes a published in-memory backend.
func UnregisterMem(name string) { memRegistry.Delete(name) }

// LookupMem returns the backend registered under name.
func LookupMem(name string) (*MemBackend, bool) {
	v, ok := memRegistry.Load(name)
	if !ok {
		return nil, false
	}
	return v.(*MemBackend), true
}

// WriteMemDataset declusters the volume into a fresh in-memory backend with
// the same layout, index format and checksum columns Write produces on
// disk. Open the result with OpenBackend, or RegisterMem it and open
// "mem://name".
func WriteMemDataset(v *volume.Volume, nodes int) (*MemBackend, *Meta, error) {
	return WriteMemDatasetDistributed(v, nodes, RoundRobinDist, EncodingRaw)
}

// WriteMemDatasetDistributed is WriteMemDataset with an explicit
// declustering policy and slice encoding.
func WriteMemDatasetDistributed(v *volume.Volume, nodes int, dist Distribution, enc Encoding) (*MemBackend, *Meta, error) {
	b := NewMemBackend()
	meta, err := writeDataset(b, v, nodes, dist, enc)
	if err != nil {
		return nil, nil, err
	}
	return b, meta, nil
}

package dataset

import (
	"container/list"
	"context"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"haralick4d/internal/readahead"
)

// DefaultMaxOpenFiles bounds the local backend's file-descriptor cache. A
// dataset node holds one file per 2D slice, so reads used to pay an
// open/stat/close per call; the cache keeps recently-read slices open and
// serves repeat reads (region reads issue one per row window, read-ahead
// revisits slices per chunk) from the same descriptor. It holds every read a
// run's self-sized readers keep in flight at once, so none evicts another's
// handle.
const DefaultMaxOpenFiles = readahead.MaxRequests

// LocalBackend serves a dataset from a local directory tree — the paper's
// node-local disks — through a bounded LRU cache of open file handles.
type LocalBackend struct {
	dir     string
	maxOpen int // <0 disables the handle cache (open per read)

	mu     sync.Mutex
	lru    *list.List // of *localEntry; front = most recently used
	byName map[string]*localEntry
	c      counters
}

// localEntry is one cached open file. refs counts the Objects currently
// holding it: entries are evicted only once unreferenced, so concurrent
// readers of the same slice share a descriptor safely (os.File.ReadAt is
// concurrency-safe and carries no shared offset).
type localEntry struct {
	name string
	f    *os.File
	size int64
	refs int
	elem *list.Element
}

// NewLocalBackend returns a Backend over the given dataset directory.
// maxOpen bounds the open-handle cache: 0 selects DefaultMaxOpenFiles and
// a negative value disables caching entirely (every Open hits the OS — the
// pre-backend behaviour, kept for the microbenchmark baseline).
func NewLocalBackend(dir string, maxOpen int) *LocalBackend {
	if maxOpen == 0 {
		maxOpen = DefaultMaxOpenFiles
	}
	return &LocalBackend{
		dir:     dir,
		maxOpen: maxOpen,
		lru:     list.New(),
		byName:  make(map[string]*localEntry),
	}
}

// Dir returns the backend's root directory.
func (b *LocalBackend) Dir() string { return b.dir }

// Scheme implements Backend.
func (b *LocalBackend) Scheme() string { return "file" }

// URL implements Backend.
func (b *LocalBackend) URL() string { return "file://" + b.dir }

func (b *LocalBackend) path(name string) string {
	return filepath.Join(b.dir, filepath.FromSlash(name))
}

// Open implements Backend. The returned Object's Close releases the cached
// handle back to the LRU instead of closing it.
func (b *LocalBackend) Open(ctx context.Context, name string) (Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.maxOpen < 0 {
		f, err := os.Open(b.path(name))
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		b.c.opens.Add(1)
		return &localObject{be: b, f: f, size: st.Size()}, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.byName[name]
	if e == nil {
		f, err := os.Open(b.path(name))
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		b.c.opens.Add(1)
		// Referenced before the eviction pass: with every older entry in
		// use, the new one would otherwise be the only candidate and be
		// closed before it is returned.
		e = &localEntry{name: name, f: f, size: st.Size(), refs: 1}
		e.elem = b.lru.PushFront(e)
		b.byName[name] = e
		b.evictLocked()
	} else {
		b.lru.MoveToFront(e.elem)
		e.refs++
	}
	return &localObject{be: b, entry: e, f: e.f, size: e.size}, nil
}

// evictLocked closes least-recently-used unreferenced handles until the
// cache is within bounds. Entries still referenced by open Objects are
// skipped; they retry eviction when released.
func (b *LocalBackend) evictLocked() {
	for b.lru.Len() > b.maxOpen {
		evicted := false
		for el := b.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*localEntry)
			if e.refs > 0 {
				continue
			}
			b.lru.Remove(el)
			delete(b.byName, e.name)
			e.f.Close()
			evicted = true
			break
		}
		if !evicted {
			return // everything over budget is in use; bounded by concurrency
		}
	}
}

// release returns a cached handle and re-runs eviction in case the cache
// overflowed while every entry was referenced.
func (b *LocalBackend) release(e *localEntry) {
	b.mu.Lock()
	e.refs--
	b.evictLocked()
	b.mu.Unlock()
}

// ReadFile implements Backend.
func (b *LocalBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(b.path(name))
	if err != nil {
		return nil, err
	}
	b.c.reads.Add(1)
	b.c.readBytes.Add(int64(len(data)))
	return data, nil
}

// List implements Backend.
func (b *LocalBackend) List(ctx context.Context, dir string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(filepath.Join(b.dir, filepath.FromSlash(dir)))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Stats implements Backend.
func (b *LocalBackend) Stats() Stats { return b.c.stats(b.Scheme(), b.URL()) }

// Close implements Backend: every cached descriptor is closed, including
// ones still referenced (the store is done with the backend).
func (b *LocalBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	for _, e := range b.byName {
		if err := e.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.byName = make(map[string]*localEntry)
	b.lru.Init()
	return first
}

// localObject is an Object over a (possibly shared) *os.File.
type localObject struct {
	be    *LocalBackend
	entry *localEntry // nil in open-per-read mode
	f     *os.File
	size  int64
	once  sync.Once
}

// ReadAt implements Object.
func (o *localObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n, err := o.f.ReadAt(p, off)
	o.be.c.reads.Add(1)
	o.be.c.readBytes.Add(int64(n))
	if err == nil && off+int64(n) == o.size {
		err = io.EOF // the Object contract: a read ending at the last byte says so
	}
	return n, err
}

// Close implements Object.
func (o *localObject) Close() error {
	var err error
	o.once.Do(func() {
		if o.entry != nil {
			o.be.release(o.entry)
		} else {
			err = o.f.Close()
		}
	})
	return err
}

// localDirOf returns the root directory when the backend (or the backend a
// fault wrapper wraps) is local, else "".
func localDirOf(b Backend) string {
	switch be := b.(type) {
	case *LocalBackend:
		return be.Dir()
	case *wrappedBackend:
		return localDirOf(be.Backend)
	}
	return ""
}

package dataset

import (
	"bytes"
	"container/list"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultCacheBlockSize is the block granularity of the read cache when the
// caller asks for caching without sizing the blocks: 128 KiB holds a full
// row window of any realistic slice and keeps remote range reads chunky.
const DefaultCacheBlockSize = 128 * 1024

// CachedBackend layers a fixed-size block cache between any Backend and
// the readers — the rclone-VFS idiom: object bytes are cached in
// blockSize-aligned blocks under a global LRU budget of capacity blocks, so
// re-reads of hot slices (chunk overlap, read-ahead revisits, repeated
// sweeps) are served from memory instead of the backing store. The cache is
// read-through and never invalidates: dataset objects are immutable once
// the header is published.
//
// Only positioned object reads are cached; ReadFile (header, index files —
// read once each) and List pass through.
type CachedBackend struct {
	inner     Backend
	blockSize int
	capacity  int

	mu     sync.Mutex
	lru    *list.List // of *cacheBlock; front = most recently used
	blocks map[cacheKey]*cacheBlock

	hits, misses, evictions, fetchBytes atomic.Int64
}

type cacheKey struct {
	name string
	idx  int64 // block index: byte offset / blockSize
}

type cacheBlock struct {
	key  cacheKey
	data []byte
	last bool // the fetch reported io.EOF: the object ends with this block
	elem *list.Element
}

// NewCachedBackend wraps inner with a cache of capacity blocks of blockSize
// bytes each. capacity must be positive; blockSize 0 selects
// DefaultCacheBlockSize, negative is rejected.
func NewCachedBackend(inner Backend, blockSize, capacity int) (*CachedBackend, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dataset: cache capacity %d blocks must be positive", capacity)
	}
	if blockSize == 0 {
		blockSize = DefaultCacheBlockSize
	}
	if blockSize < 0 {
		return nil, fmt.Errorf("dataset: cache block size %d must be positive", blockSize)
	}
	return &CachedBackend{
		inner:     inner,
		blockSize: blockSize,
		capacity:  capacity,
		lru:       list.New(),
		blocks:    make(map[cacheKey]*cacheBlock),
	}, nil
}

// Inner returns the wrapped backend.
func (b *CachedBackend) Inner() Backend { return b.inner }

// Scheme implements Backend (the inner backend's scheme; the cache is a
// layer, not a location).
func (b *CachedBackend) Scheme() string { return b.inner.Scheme() }

// URL implements Backend.
func (b *CachedBackend) URL() string { return b.inner.URL() }

// Open implements Backend.
func (b *CachedBackend) Open(ctx context.Context, name string) (Object, error) {
	obj, err := b.inner.Open(ctx, name)
	if err != nil {
		return nil, err
	}
	return &cachedObject{be: b, name: name, inner: obj}, nil
}

// ReadFile implements Backend.
func (b *CachedBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	return b.inner.ReadFile(ctx, name)
}

// List implements Backend.
func (b *CachedBackend) List(ctx context.Context, dir string) ([]string, error) {
	return b.inner.List(ctx, dir)
}

// Stats implements Backend: the inner backend's I/O counters overlaid with
// the cache's hit/miss/evict/fetch counters.
func (b *CachedBackend) Stats() Stats {
	s := b.inner.Stats()
	s.CacheHits += b.hits.Load()
	s.CacheMisses += b.misses.Load()
	s.CacheEvictions += b.evictions.Load()
	s.CacheFetchBytes += b.fetchBytes.Load()
	return s
}

// Close implements Backend.
func (b *CachedBackend) Close() error {
	b.mu.Lock()
	b.blocks = make(map[cacheKey]*cacheBlock)
	b.lru.Init()
	b.mu.Unlock()
	return b.inner.Close()
}

// lookup returns the cached block, or nil on a miss.
func (b *CachedBackend) lookup(key cacheKey) *cacheBlock {
	b.mu.Lock()
	defer b.mu.Unlock()
	blk, ok := b.blocks[key]
	if !ok {
		return nil
	}
	b.lru.MoveToFront(blk.elem)
	return blk
}

// insert publishes a fetched block, evicting from the LRU tail past
// capacity. A concurrent fetch of the same block may have landed first;
// keeping the existing copy preserves LRU position and drops the duplicate.
func (b *CachedBackend) insert(blk *cacheBlock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.blocks[blk.key]; ok {
		return
	}
	blk.elem = b.lru.PushFront(blk)
	b.blocks[blk.key] = blk
	for len(b.blocks) > b.capacity {
		tail := b.lru.Back()
		old := tail.Value.(*cacheBlock)
		b.lru.Remove(tail)
		delete(b.blocks, old.key)
		b.evictions.Add(1)
	}
}

// cachedObject serves positioned reads from the shared block cache,
// fetching missed blocks from the inner object at block granularity.
type cachedObject struct {
	be    *CachedBackend
	name  string
	inner Object
}

// ReadAt implements Object. Blocks are fetched whole, with no size query
// first: the block whose fetch reports io.EOF marks the object's end, and a
// read served entirely from resident blocks costs the inner backend nothing.
func (o *cachedObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("dataset: cached read at negative offset %d", off)
	}
	bs := int64(o.be.blockSize)
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		key := cacheKey{name: o.name, idx: pos / bs}
		in := pos - key.idx*bs // position inside the block
		blk := o.be.lookup(key)
		if blk == nil {
			o.be.misses.Add(1)
			// Fetch into pooled scratch and keep an exact-size copy: the
			// object's last block is usually far shorter than a block.
			buf := getRawBuf(o.be.blockSize)
			rn, err := o.inner.ReadAt(ctx, buf, key.idx*bs)
			o.be.fetchBytes.Add(int64(rn))
			if err != nil && err != io.EOF {
				// Surface the partial bytes the caller's range covers, then
				// the error; a failed fetch is never cached.
				if int64(rn) > in {
					n += copy(p[n:], buf[in:rn])
				}
				putRawBuf(buf)
				return n, err
			}
			blk = &cacheBlock{key: key, data: bytes.Clone(buf[:rn]), last: err == io.EOF}
			putRawBuf(buf)
			o.be.insert(blk)
		} else {
			o.be.hits.Add(1)
		}
		c := copy(p[n:], blk.data[min(in, int64(len(blk.data))):])
		n += c
		if blk.last && in+int64(c) >= int64(len(blk.data)) {
			return n, io.EOF
		}
	}
	return n, nil
}

// Close implements Object.
func (o *cachedObject) Close() error { return o.inner.Close() }

package hpart

import (
	"container/list"
	"context"
	"sync"

	"ping/internal/rdf"
)

// DefaultSubPartCacheSize is the sub-partition cache capacity query
// processors install.
const DefaultSubPartCacheSize = 64

// cacheKey identifies one decoded file in the cache: the sub-partition
// plus the generation of the backing file. Keying by generation means
// snapshots pinned to different epochs never observe each other's rows —
// a rewrite creates a new generation and therefore a fresh cache slot,
// while the retired generation's entry stays valid for readers still
// pinned to it (the epoch GC purges it once nobody can read it).
type cacheKey struct {
	key SubPartKey
	gen uint64
}

// subPartCache is a concurrency-safe LRU of decoded sub-partitions.
// Repeated queries over the same layout skip the dfs read and the
// columnar decode for cached entries. Cached slices are shared between
// callers and must be treated as immutable. No read/rewrite race exists:
// the store never writes a (sub-partition, generation) path twice, so a
// slot's rows can only ever be that one file's contents.
type subPartCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[cacheKey]*list.Element
	// bytes / rawBytes track the resident payload across entries and what
	// the same entries would cost uncompressed.
	bytes    int64
	rawBytes int64
}

type cacheEntry struct {
	key   cacheKey
	block rdf.PairBlock
}

func newSubPartCache(capacity int) *subPartCache {
	return &subPartCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

func (c *subPartCache) get(key cacheKey) (rdf.PairBlock, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return rdf.PairBlock{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).block, true
}

// stats returns the entry count, resident payload bytes, and the
// uncompressed size of the same entries.
func (c *subPartCache) stats() (n int, bytes, rawBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.rawBytes
}

// put inserts a decoded block.
func (c *subPartCache) put(key cacheKey, block rdf.PairBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(block.Bytes()) - int64(e.block.Bytes())
		c.rawBytes += int64(block.RawBytes()) - int64(e.block.RawBytes())
		e.block = block
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, block: block})
	c.bytes += int64(block.Bytes())
	c.rawBytes += int64(block.RawBytes())
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*cacheEntry)
		c.bytes -= int64(e.block.Bytes())
		c.rawBytes -= int64(e.block.RawBytes())
		delete(c.entries, e.key)
	}
}

// purge drops a key's entry, if present. Every deletion of a
// generation file calls it: the (key, generation) pair can never be read
// again.
func (c *subPartCache) purge(key cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.Remove(el)
		e := el.Value.(*cacheEntry)
		c.bytes -= int64(e.block.Bytes())
		c.rawBytes -= int64(e.block.RawBytes())
		delete(c.entries, key)
	}
}

func (c *subPartCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// EnableSubPartCache installs a decoded-sub-partition LRU of the given
// capacity if the layout does not already have one (capacity <= 0 uses
// DefaultSubPartCacheSize). It is safe to call from several processors
// sharing the layout; the first capacity wins.
func (l *Layout) EnableSubPartCache(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSubPartCacheSize
	}
	l.cacheMu.Lock()
	if l.cache == nil {
		l.cache = newSubPartCache(capacity)
	}
	l.cacheMu.Unlock()
}

// DisableSubPartCache drops the cache (and all cached entries).
func (l *Layout) DisableSubPartCache() {
	l.cacheMu.Lock()
	l.cache = nil
	l.cacheMu.Unlock()
}

// SubPartCacheLen reports the number of cached sub-partitions.
func (l *Layout) SubPartCacheLen() int {
	if c := l.subPartCache(); c != nil {
		return c.len()
	}
	return 0
}

// SubPartCacheStats reports the resident footprint of the decoded
// sub-partition cache: entry count, resident payload bytes, and what the
// same entries would occupy as raw 8-byte pairs. bytes/rawBytes is the
// per-cached-sub-partition compression the dictionary-encoded resident
// layout buys.
func (l *Layout) SubPartCacheStats() (entries int, bytes, rawBytes int64) {
	if c := l.subPartCache(); c != nil {
		return c.stats()
	}
	return 0, 0, 0
}

func (l *Layout) subPartCache() *subPartCache {
	l.cacheMu.Lock()
	c := l.cache
	l.cacheMu.Unlock()
	return c
}

// ReadSubPartitionCached is ReadSubPartitionCtx through the layout's LRU
// cache: a hit returns the resident block without touching storage
// (blocks are immutable and shared between callers). On a miss the
// decoded rows are packed into a delta-varint block before insertion, so
// the cache's resident set holds compressed sorted ID columns, not 8-byte
// pairs. Without an installed cache it degrades to a plain read with
// hit=false and a raw block. Failed reads are never cached.
func (l *Layout) ReadSubPartitionCached(ctx context.Context, key SubPartKey) (block rdf.PairBlock, hit bool, err error) {
	c := l.subPartCache()
	ck := cacheKey{key: key, gen: l.gen[key]}
	if c != nil {
		if b, ok := c.get(ck); ok {
			return b, true, nil
		}
	}
	pairs, err := l.ReadSubPartitionCtx(ctx, key)
	if err != nil {
		return rdf.PairBlock{}, false, err
	}
	if c == nil {
		return rdf.RawPairs(pairs), false, nil
	}
	block = rdf.PackPairs(pairs)
	c.put(ck, block)
	return block, false, nil
}

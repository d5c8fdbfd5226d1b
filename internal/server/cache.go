package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"neutronsim/internal/telemetry"
)

// cacheEntry is one completed campaign result.
type cacheEntry struct {
	key  string
	body []byte // marshaled ResultEnvelope
	etag string // strong ETag: quoted sha256 of body
}

// Cache is the deterministic result cache: completed campaign bodies keyed
// by the canonical request hash, bounded both by entry count and by total
// body bytes, evicting least-recently-used entries. Because campaigns are
// pure functions of the normalized request, entries never expire — an
// entry can only become wrong if the physics changes, which is a new
// binary, not a new request.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used; values are *cacheEntry
	index      map[string]*list.Element

	hits   *telemetry.Counter
	misses *telemetry.Counter
}

// NewCache builds a cache bounded by maxEntries entries and maxBytes total
// body bytes. Non-positive bounds fall back to 256 entries / 64 MiB.
func NewCache(maxEntries int, maxBytes int64, reg *telemetry.Registry) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if reg == nil {
		reg = telemetry.Default
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      map[string]*list.Element{},
		hits:       reg.Counter("server.cache_hits"),
		misses:     reg.Counter("server.cache_misses"),
	}
}

// ETagFor computes the strong ETag for a response body.
func ETagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// Get returns the cached body and ETag for a key, counting the hit or
// miss. The returned slice is shared; callers must not mutate it.
func (c *Cache) Get(key string) (body []byte, etag string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses.Add(1)
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.hits.Add(1)
	return e.body, e.etag, true
}

// Put stores a completed result body. Oversized bodies (> maxBytes on
// their own) are not cached. Put returns the entry's ETag either way.
func (c *Cache) Put(key string, body []byte) string {
	etag := ETagFor(body)
	if int64(len(body)) > c.maxBytes {
		return etag
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		// Deterministic campaigns make a differing body for the same key
		// impossible; refresh recency and keep the original.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).etag
	}
	e := &cacheEntry{key: key, body: body, etag: etag}
	c.index[key] = c.ll.PushFront(e)
	c.bytes += int64(len(body))
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		ev := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.index, ev.key)
		c.bytes -= int64(len(ev.body))
	}
	return etag
}

// CacheStats is a point-in-time snapshot of the result cache, served by
// GET /v1/stats.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	Bytes    int64   `json:"bytes"`
	MaxBytes int64   `json:"max_bytes"`
	Capacity int     `json:"capacity"`
}

// Stats reads the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	st := CacheStats{
		Hits:     c.hits.Value(),
		Misses:   c.misses.Value(),
		Entries:  entries,
		Bytes:    bytes,
		MaxBytes: c.maxBytes,
		Capacity: c.maxEntries,
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

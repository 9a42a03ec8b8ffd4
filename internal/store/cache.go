package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"unsafe"
)

// CacheKey derives the content address of an optimization request: the
// canonical QASM of the input circuit (callers must normalize via a parse +
// WriteQASM round trip so formatting differences collapse), the target gate
// set, the objective, and the ε budget. Requests that agree on all four are
// interchangeable — any cached solution satisfies both.
func CacheKey(canonicalQASM, target, objective string, epsilon float64) string {
	return Digest(epsilon, canonicalQASM, target, objective)
}

// Digest returns the hex SHA-256 of the fields and epsilon, each followed
// by a NUL but the last, with epsilon in %.17g form: the content address
// behind CacheKey and dist.SessionID.
func Digest(epsilon float64, fields ...string) string {
	h := sha256.New() // its Write never returns an error
	for _, f := range fields {
		// An io.Writer must neither modify nor retain what it is given, so
		// the text is hashed where it lies instead of copied.
		h.Write(unsafe.Slice(unsafe.StringData(f), len(f)))
		h.Write(nul)
	}
	var tail [32]byte
	h.Write(strconv.AppendFloat(tail[:0], epsilon, 'g', 17, 64))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

var nul = []byte{0}

// CacheEntry is one cached optimization result: the optimized circuit, its
// accumulated ε bound, and its cost under the request's objective.
type CacheEntry struct {
	QASM string  `json:"qasm"`
	Err  float64 `json:"err"`
	Cost float64 `json:"cost"`
}

func (e CacheEntry) size() int64 { return int64(len(e.QASM)) + 64 }

// CacheStats snapshots a cache's traffic counters.
type CacheStats struct {
	Hits     int64 // Get calls served (memory or disk)
	Misses   int64 // Get calls that found nothing
	DiskHits int64 // subset of Hits served by reloading a spilled entry
}

// Cache is a content-addressed result cache with LRU eviction bounded by
// both entry count and total bytes, and an optional disk spill directory:
// every Put also lands on disk, so entries evicted from memory (or a cache
// lost to a restart) are transparently reloaded on their next Get. Safe
// for concurrent use.
type Cache struct {
	maxEntries int
	maxBytes   int64
	dir        string // "" = memory only

	mu    sync.Mutex
	ll    *list.List               // front = most recently used; values are *cacheItem; guarded by mu
	items map[string]*list.Element // guarded by mu
	bytes int64                    // guarded by mu
	stats CacheStats               // guarded by mu
}

type cacheItem struct {
	key   string
	entry CacheEntry
}

// NewCache builds a cache bounded to maxEntries entries and maxBytes total
// payload bytes (≤0 selects 4096 entries / 256 MB). A non-empty dir
// enables the disk spill under dir (created on demand).
func NewCache(maxEntries int, maxBytes int64, dir string) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		dir:        dir,
		ll:         list.New(),
		items:      map[string]*list.Element{},
	}
}

// Get returns the entry cached under key, consulting the disk spill when
// memory misses. The second result reports whether anything was found.
func (c *Cache) Get(key string) (CacheEntry, bool) {
	if c == nil {
		return CacheEntry{}, false
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheItem).entry
		c.stats.Hits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if e, ok := c.loadSpilled(key); ok {
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.installLocked(key, e)
		c.mu.Unlock()
		return e, true
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return CacheEntry{}, false
}

// Put stores an entry under key. When the key is already present, the
// lower-cost solution wins — both satisfy the key's ε budget, so cost is
// the only tiebreak. The entry is also spilled to disk when a spill
// directory is configured.
func (c *Cache) Put(key string, e CacheEntry) {
	if c == nil || key == "" || e.QASM == "" {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok && el.Value.(*cacheItem).entry.Cost <= e.Cost {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.installLocked(key, e)
	c.mu.Unlock()
	c.spill(key, e)
}

// installLocked inserts or replaces key's entry at the LRU front and
// evicts past either bound. Caller holds c.mu.
func (c *Cache) installLocked(key string, e CacheEntry) {
	if el, ok := c.items[key]; ok {
		it := el.Value.(*cacheItem)
		c.bytes += e.size() - it.entry.size()
		it.entry = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: e})
		c.bytes += e.size()
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		el := c.ll.Back()
		it := el.Value.(*cacheItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.entry.size()
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// HitRate returns hits/(hits+misses), or 0 before any traffic.
func (c *Cache) HitRate() float64 {
	st := c.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		return float64(st.Hits) / float64(total)
	}
	return 0
}

// spillPath shards spilled entries over 256 subdirectories so no single
// directory grows unboundedly.
func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// spill writes an entry to the disk spill; best-effort (a full disk must
// not fail the request that produced the result).
func (c *Cache) spill(key string, e CacheEntry) {
	if c.dir == "" || len(key) < 2 {
		return
	}
	path := c.spillPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if os.WriteFile(tmp, data, 0o644) == nil {
		_ = os.Rename(tmp, path)
	}
}

// loadSpilled reloads a spilled entry; a corrupt file is treated as a miss.
func (c *Cache) loadSpilled(key string) (CacheEntry, bool) {
	if c.dir == "" || len(key) < 2 {
		return CacheEntry{}, false
	}
	data, err := os.ReadFile(c.spillPath(key))
	if err != nil {
		return CacheEntry{}, false
	}
	var e CacheEntry
	if json.Unmarshal(data, &e) != nil || e.QASM == "" {
		return CacheEntry{}, false
	}
	return e, true
}

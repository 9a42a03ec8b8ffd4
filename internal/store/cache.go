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
//
// Keys are made only from canonical text. A lookup may rest on that: a key
// computed on submitted text that holds no NUL (Digest's separator, which
// canonical text never contains) matches a stored key only if that text is
// the canonical text the stored key was made from, barring a SHA-256
// collision.
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
	Misses   int64 // lookups that found nothing, counted by Miss
	DiskHits int64 // subset of Hits served by reloading a spilled entry
}

// Cache is a content-addressed result cache with LRU eviction bounded by
// both entry count and total bytes, and an optional disk spill directory:
// every Put also lands on disk, so entries evicted from memory (or a cache
// lost to a restart) are transparently reloaded on their next Get. Each
// in-memory entry may also hold the reply its caller encoded for it (see
// SetReply), so that a hot entry is encoded once. Safe for concurrent use.
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
	reply []byte // set by SetReply; never spilled
}

func (it *cacheItem) size() int64 { return it.entry.size() + int64(len(it.reply)) }

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

// Get returns the entry cached under key and the reply recorded for it by
// SetReply (nil until then), consulting the disk spill when memory misses.
// The last result reports whether anything was found. A find counts as a
// hit; a miss is counted by Miss, so that a caller that tries a second key
// for one request counts the request once.
func (c *Cache) Get(key string) (CacheEntry, []byte, bool) {
	if c == nil {
		return CacheEntry{}, nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		e, found := c.loadSpilled(key)
		if !found {
			return CacheEntry{}, nil, false
		}
		c.mu.Lock()
		el = c.reloadLocked(key, e)
	}
	c.ll.MoveToFront(el)
	it := el.Value.(*cacheItem)
	e, reply := it.entry, it.reply
	c.stats.Hits++
	c.mu.Unlock()
	return e, reply, true
}

// Miss counts one lookup that found nothing.
func (c *Cache) Miss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// reloadLocked installs e, read from key's spill file without c.mu held,
// and returns key's element. If memory gained an entry for key while the
// file was read (a Put, or another reload), that entry stands: the file
// may predate it. Caller holds c.mu.
func (c *Cache) reloadLocked(key string, e CacheEntry) *list.Element {
	if el, ok := c.items[key]; ok {
		return el
	}
	c.stats.DiskHits++
	return c.installLocked(key, e)
}

// SetReply records reply, the caller's encoding of the reply for key's
// entry e, if e is still the entry memory holds for key; later Gets return
// it. The bytes count against the byte bound. They are dropped when a Put
// replaces the entry or the entry is evicted, and never spilled.
func (c *Cache) SetReply(key string, e CacheEntry, reply []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if it := el.Value.(*cacheItem); it.entry == e && it.reply == nil {
		it.reply = reply
		c.bytes += int64(len(reply))
		c.evictLocked()
	}
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

// installLocked inserts or replaces key's entry at the LRU front, dropping
// any reply recorded for the entry it replaces, evicts past either bound,
// and returns key's element. Caller holds c.mu.
func (c *Cache) installLocked(key string, e CacheEntry) *list.Element {
	el, ok := c.items[key]
	if ok {
		it := el.Value.(*cacheItem)
		c.bytes -= it.size()
		it.entry, it.reply = e, nil
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&cacheItem{key: key, entry: e})
		c.items[key] = el
	}
	c.bytes += e.size()
	c.evictLocked()
	return el
}

// evictLocked drops least recently used entries while either bound is
// exceeded, keeping at least the front one. Caller holds c.mu.
func (c *Cache) evictLocked() {
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		el := c.ll.Back()
		it := el.Value.(*cacheItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.size()
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
	// Each spill writes its own temporary file: two spills of one key may
	// run at once, and a shared name would let one rename the other's
	// half-written file into place.
	f, err := os.CreateTemp(filepath.Dir(path), key+".json.*.tmp")
	if err != nil {
		return
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Chmod(0o644) // CreateTemp makes 0600; the store writes 0644
	}
	if cerr := f.Close(); werr != nil || cerr != nil || os.Rename(f.Name(), path) != nil {
		_ = os.Remove(f.Name())
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

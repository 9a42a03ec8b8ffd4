package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCacheKeyNormalization(t *testing.T) {
	a := CacheKey("qasm-a", "ibmq20", "2q", 1e-8)
	if a != CacheKey("qasm-a", "ibmq20", "2q", 1e-8) {
		t.Fatal("identical inputs hashed differently")
	}
	for _, other := range []string{
		CacheKey("qasm-b", "ibmq20", "2q", 1e-8),
		CacheKey("qasm-a", "ionq", "2q", 1e-8),
		CacheKey("qasm-a", "ibmq20", "t", 1e-8),
		CacheKey("qasm-a", "ibmq20", "2q", 1e-4),
	} {
		if other == a {
			t.Fatal("distinct request fields collided")
		}
	}
}

func TestCacheHitMissAndStats(t *testing.T) {
	c := NewCache(8, 0, "")
	k := CacheKey("q", "t", "o", 0)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Miss()
	c.Put(k, CacheEntry{QASM: "optimized", Cost: 3})
	e, _, ok := c.Get(k)
	if !ok || e.QASM != "optimized" || e.Cost != 3 {
		t.Fatalf("Get = (%+v, %v)", e, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if r := c.HitRate(); r != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", r)
	}
}

func TestCacheLowerCostWins(t *testing.T) {
	c := NewCache(8, 0, "")
	c.Put("k", CacheEntry{QASM: "good", Cost: 5})
	c.Put("k", CacheEntry{QASM: "worse", Cost: 9})
	if e, _, _ := c.Get("k"); e.QASM != "good" {
		t.Fatalf("higher-cost Put replaced the entry: %+v", e)
	}
	c.Put("k", CacheEntry{QASM: "better", Cost: 2})
	if e, _, _ := c.Get("k"); e.QASM != "better" {
		t.Fatalf("lower-cost Put did not replace: %+v", e)
	}
}

func TestCacheEntryEviction(t *testing.T) {
	c := NewCache(2, 0, "")
	c.Put("a", CacheEntry{QASM: "A", Cost: 1})
	c.Put("b", CacheEntry{QASM: "B", Cost: 1})
	c.Get("a") // refresh a: b is now LRU
	c.Put("c", CacheEntry{QASM: "C", Cost: 1})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
}

func TestCacheByteEviction(t *testing.T) {
	// Each entry costs len(QASM)+64 bytes; cap at ~2 entries' worth.
	c := NewCache(100, 300, "")
	big := strings.Repeat("x", 80) // 144 bytes each
	c.Put("a", CacheEntry{QASM: big, Cost: 1})
	c.Put("b", CacheEntry{QASM: big, Cost: 1})
	c.Put("c", CacheEntry{QASM: big, Cost: 1})
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2 (byte bound)", n)
	}
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived the byte bound")
	}
}

func TestCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 0, dir)
	ka := CacheKey("circ-a", "t", "o", 0)
	kb := CacheKey("circ-b", "t", "o", 0)
	c.Put(ka, CacheEntry{QASM: "A", Cost: 1})
	c.Put(kb, CacheEntry{QASM: "B", Cost: 2}) // evicts ka from memory
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// The evicted entry reloads from the spill.
	e, _, ok := c.Get(ka)
	if !ok || e.QASM != "A" {
		t.Fatalf("spilled entry not reloaded: (%+v, %v)", e, ok)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}

	// A fresh cache over the same dir — a restart — still serves both.
	c2 := NewCache(4, 0, dir)
	if e, _, ok := c2.Get(kb); !ok || e.QASM != "B" {
		t.Fatalf("entry lost across restart: (%+v, %v)", e, ok)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put("k", CacheEntry{QASM: "x"})
	c.SetReply("k", CacheEntry{QASM: "x"}, []byte("reply"))
	c.Miss()
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 || c.HitRate() != 0 {
		t.Fatal("nil cache reported non-zero state")
	}
}

// A reply recorded for an entry comes back with every later Get, counts
// against the byte bound, and goes when a Put replaces the entry, when the
// entry is evicted, or across the spill. A reply encoded for an entry that
// has since been replaced is not recorded.
func TestCacheReply(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(2, 0, dir)
	k := CacheKey("circ", "t", "o", 0)
	c.Put(k, CacheEntry{QASM: "A", Cost: 5})
	e, reply, _ := c.Get(k)
	if reply != nil {
		t.Fatalf("fresh entry has reply %q", reply)
	}
	c.SetReply(k, e, []byte("reply-A"))
	if _, reply, _ := c.Get(k); string(reply) != "reply-A" {
		t.Fatalf("Get after SetReply returned reply %q", reply)
	}
	c.SetReply(k, e, []byte("again"))
	if _, reply, _ := c.Get(k); string(reply) != "reply-A" {
		t.Fatalf("a second SetReply replaced the recorded reply with %q", reply)
	}
	c.mu.Lock()
	bytes := c.bytes
	c.mu.Unlock()
	if want := e.size() + int64(len("reply-A")); bytes != want {
		t.Fatalf("cache holds %d bytes, want %d with the reply", bytes, want)
	}

	c.Put(k, CacheEntry{QASM: "B", Cost: 3})
	if e2, reply, _ := c.Get(k); e2.QASM != "B" || reply != nil {
		t.Fatalf("after a replacing Put, Get = (%+v, %q), want B without a reply", e2, reply)
	}
	c.SetReply(k, e, []byte("reply-A")) // encoded for the replaced entry
	if _, reply, _ := c.Get(k); reply != nil {
		t.Fatalf("reply for a replaced entry was recorded: %q", reply)
	}

	e2, _, _ := c.Get(k)
	c.SetReply(k, e2, []byte("reply-B"))
	c.Put(CacheKey("x", "t", "o", 0), CacheEntry{QASM: "X", Cost: 1})
	c.Put(CacheKey("y", "t", "o", 0), CacheEntry{QASM: "Y", Cost: 1}) // evicts k
	if e3, reply, ok := c.Get(k); !ok || e3 != e2 || reply != nil {
		t.Fatalf("reloaded entry = (%+v, %q, %v), want %+v without a reply", e3, reply, ok, e2)
	}

	// The reply's bytes count against the byte bound.
	small := NewCache(8, 200, "")
	small.Put("a", CacheEntry{QASM: "A", Cost: 1})
	small.Put("b", CacheEntry{QASM: "B", Cost: 1})
	eb, _, _ := small.Get("b")
	small.SetReply("b", eb, make([]byte, 100))
	if _, _, ok := small.Get("a"); ok || small.Len() != 1 {
		t.Fatalf("a 100-byte reply kept %d entries within a 200-byte bound", small.Len())
	}
}

// A Get that misses memory reads the spill file without the lock. If a
// cheaper Put lands before the reload installs what it read, the Put's
// entry stays and is what the Get returns.
func TestCacheReloadKeepsNewerEntry(t *testing.T) {
	c := NewCache(1, 0, t.TempDir())
	k := CacheKey("circ", "t", "o", 0)
	c.Put(k, CacheEntry{QASM: "costly", Cost: 10})
	c.Put(CacheKey("other", "t", "o", 0), CacheEntry{QASM: "other", Cost: 1}) // evicts k
	// Get reads the spill file, then a cheaper Put lands before it reloads.
	stale, ok := c.loadSpilled(k)
	if !ok || stale.QASM != "costly" {
		t.Fatalf("spill file = (%+v, %v), want the cost-10 entry", stale, ok)
	}
	c.Put(k, CacheEntry{QASM: "cheap", Cost: 1})
	c.mu.Lock()
	got := c.reloadLocked(k, stale).Value.(*cacheItem).entry
	c.mu.Unlock()
	if got.QASM != "cheap" {
		t.Fatalf("reload returned %+v, want the cheaper entry Put meanwhile", got)
	}
	if e, _, _ := c.Get(k); e.QASM != "cheap" {
		t.Fatalf("after the reload, Get = %+v, want the cheaper entry", e)
	}
	if st := c.Stats(); st.DiskHits != 0 {
		t.Fatalf("DiskHits = %d, want 0: memory served the key", st.DiskHits)
	}
}

// Concurrent spills of one key never leave a torn file: every reload
// decodes to one of the entries written.
func TestCacheConcurrentSpills(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, 0, dir)
	k := CacheKey("circ", "t", "o", 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.spill(k, CacheEntry{QASM: strings.Repeat(string(rune('a'+w)), 4096+w), Cost: float64(w)})
			}
		}(w)
	}
	wg.Wait()
	e, ok := c.loadSpilled(k)
	if !ok || len(e.QASM) != 4096+int(e.Cost) {
		t.Fatalf("spill file after concurrent spills = (%d bytes, cost %v, %v)", len(e.QASM), e.Cost, ok)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, k[:2], "*.tmp"))
	if len(leftovers) != 0 {
		t.Fatalf("temporary files left behind: %v", leftovers)
	}
}

// Gets, Puts and SetReplies from several goroutines at once, with
// evictions and reloads: every reply a Get returns was recorded for the
// entry it comes with.
func TestCacheConcurrentReplies(t *testing.T) {
	c := NewCache(2, 0, t.TempDir())
	keys := []string{CacheKey("a", "t", "o", 0), CacheKey("b", "t", "o", 0), CacheKey("c", "t", "o", 0)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keys[(w+i)%len(keys)]
				if i%7 == 0 {
					c.Put(k, CacheEntry{QASM: fmt.Sprintf("q%d-%d", w, i), Cost: float64(1000 - i)})
				}
				e, reply, ok := c.Get(k)
				switch {
				case !ok:
				case reply == nil:
					c.SetReply(k, e, []byte("reply:"+e.QASM))
				case string(reply) != "reply:"+e.QASM:
					t.Errorf("Get returned entry %q with reply %q", e.QASM, reply)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

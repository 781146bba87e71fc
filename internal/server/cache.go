package server

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// queryKey renders the canonical answer-cache key for one query: backend,
// the version tag of the content the answer corresponds to, and the exact
// arguments. Keying on the tag is what makes invalidation free — a
// hot-swap or delta apply changes the tag, so every stale entry is
// orphaned under a key no future lookup computes, and the LRU drains it.
func queryKey(backend, gen string, q Query) string {
	var b strings.Builder
	b.Grow(len(backend) + len(gen) + len(q.Op) + 24)
	b.WriteString(backend)
	b.WriteByte('|')
	b.WriteString(gen)
	b.WriteByte('|')
	b.WriteString(q.Op)
	id := func(v *int) {
		b.WriteByte('|')
		if v != nil {
			b.WriteString(strconv.Itoa(*v))
		}
	}
	id(q.P)
	id(q.Q)
	id(q.O)
	return b.String()
}

// cacheEntry is one cached Result. The Result's IDs slice is shared with
// every response serving the hit — safe because Results are immutable
// after construction, and what keeps a cached answer byte-identical to a
// computed one (the cached bytes ARE the first computation's encoding).
type cacheEntry struct {
	key  string
	res  Result
	size int64
}

// entrySize approximates an entry's memory footprint for the byte budget.
// The constant covers the list element, map bucket share, and struct
// headers; it only needs to be honest enough that the budget bounds real
// memory within a small factor.
func entrySize(key string, res Result) int64 {
	return int64(len(key)+len(res.IDs)+len(res.Err)) + 96
}

// answerCache is the server's bounded LRU of list-query answers. All
// methods are safe for concurrent use; the counters are atomics so stats
// reads never contend with the hot path more than the one mutex already
// does.
type answerCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List // of *cacheEntry; front = hottest
	index  map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
}

// newAnswerCache returns a cache bounded at budget bytes.
func newAnswerCache(budget int64) *answerCache {
	return &answerCache{
		budget: budget,
		lru:    list.New(),
		index:  make(map[string]*list.Element),
	}
}

func (c *answerCache) get(key string) (Result, bool) {
	c.mu.Lock()
	el, ok := c.index[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return Result{}, false
	}
	c.lru.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	c.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

func (c *answerCache) put(key string, res Result) {
	size := entrySize(key, res)
	if size > c.budget {
		return // a single oversized answer must not wipe the whole cache
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		// Same key, same generation ⇒ same answer; just refresh recency.
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	e := &cacheEntry{key: key, res: res, size: size}
	c.index[key] = c.lru.PushFront(e)
	c.bytes += size
	evicted := int64(0)
	for c.bytes > c.budget {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.index, old.key)
		c.bytes -= old.size
		evicted++
	}
	c.mu.Unlock()
	c.puts.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// CacheStats is the answer-cache section of /debug/stats.
type CacheStats struct {
	Budget    int64   `json:"budget"`
	Bytes     int64   `json:"bytes"`
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Puts      int64   `json:"puts"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}

func (c *answerCache) stats() CacheStats {
	c.mu.Lock()
	bytes, entries := c.bytes, c.lru.Len()
	c.mu.Unlock()
	st := CacheStats{
		Budget:    c.budget,
		Bytes:     bytes,
		Entries:   entries,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRatio = float64(st.Hits) / float64(total)
	}
	return st
}

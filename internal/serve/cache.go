package serve

import (
	"container/list"
	"sync"

	"sparselr/internal/core"
)

// Cache is the content-addressed result cache: completed
// approximations keyed by Spec.Key, evicted least-recently-used once
// the estimated resident bytes exceed the budget.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

type cacheEntry struct {
	key   string
	ap    *core.Approximation
	bytes int64
}

// NewCache builds a cache with the given byte budget. budget <= 0
// disables caching (every Get misses, Put is a no-op).
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached approximation for key, refreshing its
// recency; ok is false on a miss.
func (c *Cache) Get(key string) (*core.Approximation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).ap, true
}

// Put inserts (or refreshes) a completed approximation, then evicts
// from the LRU tail until the budget holds. An entry larger than the
// whole budget is not admitted.
func (c *Cache) Put(key string, ap *core.Approximation) {
	if c.budget <= 0 || ap == nil {
		return
	}
	size := approxBytes(ap)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.used += size - el.Value.(*cacheEntry).bytes
		el.Value.(*cacheEntry).ap = ap
		el.Value.(*cacheEntry).bytes = size
		c.ll.MoveToFront(el)
	} else {
		if size > c.budget {
			return
		}
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, ap: ap, bytes: size})
		c.used += size
	}
	for c.used > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, e.key)
		c.used -= e.bytes
		c.evictions++
	}
}

// Stats returns (entries, resident bytes, budget, evictions so far).
func (c *Cache) Stats() (entries int, used, budget int64, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.used, c.budget, c.evictions
}

// approxBytes estimates an approximation's resident size: its factors
// under core.Factor.Bytes (the dominant term), the error history, and
// 512 bytes of struct headers and map/list bookkeeping.
func approxBytes(ap *core.Approximation) int64 {
	return ap.FactorBytes() + int64(len(ap.ErrHistory))*8 + 512
}

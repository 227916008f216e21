package serve

import (
	"sync"

	"sparselr/internal/core"
)

// Cache is the content-addressed result cache: completed
// approximations keyed by Spec.Key, evicted least-recently-used once
// the estimated resident bytes exceed the budget. A nil *Cache is an
// empty, disabled cache.
type Cache struct {
	mu  sync.Mutex
	idx lru[*core.Approximation]
}

// NewCache builds a cache with the given byte budget. budget <= 0
// disables caching (every Get misses, Put is a no-op).
func NewCache(budget int64) *Cache {
	return &Cache{idx: newLRU[*core.Approximation](budget, nil)}
}

// Get returns the cached approximation for key, refreshing its
// recency; ok is false on a miss.
func (c *Cache) Get(key string) (*core.Approximation, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.get(key)
}

// Put inserts (or refreshes) a completed approximation, then evicts
// from the LRU tail until the budget holds. An entry larger than the
// whole budget is not admitted.
func (c *Cache) Put(key string, ap *core.Approximation) {
	if c == nil || ap == nil {
		return
	}
	size := approxBytes(ap)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.put(key, ap, size)
}

// Stats returns (entries, resident bytes, budget, evictions so far).
func (c *Cache) Stats() (entries int, used, budget int64, evictions uint64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idx.items), c.idx.used, c.idx.budget, c.idx.evictions
}

// approxBytes estimates an approximation's resident size: its factors
// under core.Factor.Bytes (the dominant term), the error history, and
// 512 bytes of struct headers and map/list bookkeeping.
func approxBytes(ap *core.Approximation) int64 {
	return ap.FactorBytes() + int64(len(ap.ErrHistory))*8 + 512
}

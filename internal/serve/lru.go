package serve

import "container/list"

// lru is the byte-budgeted least-recently-used index both cache tiers
// share: the memory Cache keeps approximations in it, the DiskCache
// keeps the names and sizes of its files. Callers hold their own lock.
//
// The rules: get refreshes an entry's recency; put inserts or refreshes
// an entry, refuses one larger than the whole budget, and then evicts
// from the least-recent end until the resident bytes fit the budget,
// handing each evicted key to onEvict.
type lru[V any] struct {
	budget    int64
	used      int64
	evictions uint64
	ll        *list.List               // of *lruEntry[V]; front = most recently used
	items     map[string]*list.Element // key → its element in ll
	onEvict   func(key string)         // nil = nothing to release
}

type lruEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

func newLRU[V any](budget int64, onEvict func(key string)) lru[V] {
	return lru[V]{budget: budget, ll: list.New(), items: map[string]*list.Element{}, onEvict: onEvict}
}

// get returns the value for key and makes it the most recent entry.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// fits reports whether an entry of size bytes can be admitted at all.
func (l *lru[V]) fits(size int64) bool { return size <= l.budget }

// put inserts or refreshes key as the most recent entry, then evicts
// until the budget holds. It reports false, changing nothing, when the
// entry is larger than the whole budget.
func (l *lru[V]) put(key string, val V, size int64) bool {
	if !l.fits(size) {
		return false
	}
	if el, ok := l.items[key]; ok {
		e := el.Value.(*lruEntry[V])
		l.used += size - e.bytes
		e.val, e.bytes = val, size
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruEntry[V]{key: key, val: val, bytes: size})
		l.used += size
	}
	for l.used > l.budget {
		e := l.ll.Remove(l.ll.Back()).(*lruEntry[V])
		delete(l.items, e.key)
		l.used -= e.bytes
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(e.key)
		}
	}
	return true
}

// remove drops key without counting an eviction or calling onEvict.
func (l *lru[V]) remove(key string) {
	if el, ok := l.items[key]; ok {
		l.ll.Remove(el)
		delete(l.items, key)
		l.used -= el.Value.(*lruEntry[V]).bytes
	}
}

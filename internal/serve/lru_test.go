package serve

import (
	"reflect"
	"testing"
)

// keys lists the resident keys, most recent first.
func (l *lru[V]) keys() []string {
	keys := make([]string, 0, len(l.items))
	for el := l.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[V]).key)
	}
	return keys
}

// TestLRURules walks the shared LRU through every rule both cache tiers
// depend on: get refreshes recency, put refreshes an existing key's
// value, size and recency, an entry over the whole budget is refused
// without touching the index, and eviction takes the least recent
// entries first until the budget holds, handing each key to onEvict.
// remove drops an entry without counting an eviction.
func TestLRURules(t *testing.T) {
	var evicted []string
	l := newLRU[int](10, func(key string) { evicted = append(evicted, key) })
	type step struct {
		name    string
		op      func() bool // reports get's hit or put's admission
		want    bool
		keys    []string // resident, most recent first
		used    int64
		evicted []string // onEvict calls so far
	}
	put := func(key string, val int, size int64) func() bool {
		return func() bool { return l.put(key, val, size) }
	}
	get := func(key string, want int) func() bool {
		return func() bool {
			v, ok := l.get(key)
			if ok && v != want {
				t.Errorf("get(%s) = %d, want %d", key, v, want)
			}
			return ok
		}
	}
	steps := []step{
		{"insert a", put("a", 1, 3), true, []string{"a"}, 3, nil},
		{"insert b", put("b", 2, 3), true, []string{"b", "a"}, 6, nil},
		{"insert c", put("c", 3, 3), true, []string{"c", "b", "a"}, 9, nil},
		{"get touches a", get("a", 1), true, []string{"a", "c", "b"}, 9, nil},
		{"get misses", get("zz", 0), false, []string{"a", "c", "b"}, 9, nil},
		{"put d evicts the tail b", put("d", 4, 2), true, []string{"d", "a", "c"}, 8, []string{"b"}},
		{"refresh c grows it and moves it to the front", put("c", 30, 5), true, []string{"c", "d", "a"}, 10, []string{"b"}},
		{"get c sees the refreshed value", get("c", 30), true, []string{"c", "d", "a"}, 10, []string{"b"}},
		{"oversized entry is refused", put("e", 5, 11), false, []string{"c", "d", "a"}, 10, []string{"b"}},
		{"oversized refresh is refused", put("a", 6, 11), false, []string{"c", "d", "a"}, 10, []string{"b"}},
		{"get a still holds the old value", get("a", 1), true, []string{"a", "c", "d"}, 10, []string{"b"}},
		{"entry of the whole budget evicts all others, least recent first", put("f", 7, 10), true, []string{"f"}, 10, []string{"b", "d", "c", "a"}},
		{"remove is not an eviction", func() bool { l.remove("f"); return true }, true, []string{}, 0, []string{"b", "d", "c", "a"}},
	}
	for _, s := range steps {
		if got := s.op(); got != s.want {
			t.Fatalf("%s: got %v, want %v", s.name, got, s.want)
		}
		if got := l.keys(); !reflect.DeepEqual(got, s.keys) {
			t.Fatalf("%s: keys %v, want %v", s.name, got, s.keys)
		}
		if l.used != s.used || len(l.items) != len(s.keys) {
			t.Fatalf("%s: used %d over %d items, want %d over %d", s.name, l.used, len(l.items), s.used, len(s.keys))
		}
		if !reflect.DeepEqual(evicted, s.evicted) || l.evictions != uint64(len(s.evicted)) {
			t.Fatalf("%s: evicted %v (%d counted), want %v", s.name, evicted, l.evictions, s.evicted)
		}
	}

	// A non-positive budget admits nothing: the memory tier's "disabled".
	off := newLRU[int](0, nil)
	if off.put("a", 1, 1) || len(off.items) != 0 {
		t.Fatal("budget 0 admitted an entry")
	}
}

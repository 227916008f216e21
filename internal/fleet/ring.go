package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultReplicas is the virtual-node count per backend. 64 points per
// backend keeps the largest/smallest arc ratio near 1.3 for small
// fleets while keeping ring rebuilds cheap.
const DefaultReplicas = 64

// Ring is a consistent-hash ring over backend base URLs. Keys are the
// content-addressed spec keys from internal/serve (64 hex chars, i.e.
// already uniformly distributed), so the ring hashes only the virtual
// node positions and can map a key by hashing it once.
//
// Membership changes move only the arcs owned by the affected backend
// (~1/N of the keyspace for N backends): adding or removing a node
// never reshuffles keys between two surviving nodes. Lookups take a
// copy-on-write snapshot, so Owner never blocks behind a rebuild.
type Ring struct {
	mu       sync.Mutex
	replicas int
	members  map[string]bool // backend → present
	snap     *ringSnapshot   // copy-on-write; nil until first Add
}

type ringSnapshot struct {
	points   []uint64 // sorted virtual-node positions
	owners   []string // owners[i] owns points[i]
	backends []string // distinct members, sorted
}

// NewRing builds an empty ring; replicas ≤ 0 uses DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, members: map[string]bool{}}
}

// hashPoint positions one virtual node (or a key) on the ring.
func hashPoint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a backend (idempotent).
func (r *Ring) Add(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[backend] {
		return
	}
	r.members[backend] = true
	r.rebuildLocked()
}

// Remove evicts a backend (idempotent).
func (r *Ring) Remove(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[backend] {
		return
	}
	delete(r.members, backend)
	r.rebuildLocked()
}

// rebuildLocked recomputes the snapshot from the member set. Virtual
// node positions depend only on (backend, replica index), so a member
// leaving keeps every other backend's points fixed — the bounded-jump
// property. Caller holds r.mu.
func (r *Ring) rebuildLocked() {
	backends := make([]string, 0, len(r.members))
	for b := range r.members {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	n := len(backends) * r.replicas
	snap := &ringSnapshot{
		points:   make([]uint64, 0, n),
		owners:   make([]string, 0, n),
		backends: backends,
	}
	type vnode struct {
		pos   uint64
		owner string
	}
	vnodes := make([]vnode, 0, n)
	for _, b := range backends {
		for i := 0; i < r.replicas; i++ {
			vnodes = append(vnodes, vnode{hashPoint(b + "#" + strconv.Itoa(i)), b})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].pos != vnodes[j].pos {
			return vnodes[i].pos < vnodes[j].pos
		}
		return vnodes[i].owner < vnodes[j].owner // deterministic collision order
	})
	for _, v := range vnodes {
		snap.points = append(snap.points, v.pos)
		snap.owners = append(snap.owners, v.owner)
	}
	r.snap = snap
}

// snapshot returns the current copy-on-write view (nil when empty).
func (r *Ring) snapshot() *ringSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snap
}

// Owner maps a key to its owning backend; ok=false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	snap := r.snapshot()
	if snap == nil || len(snap.points) == 0 {
		return "", false
	}
	return snap.ownerAt(hashPoint(key)), true
}

func (s *ringSnapshot) ownerAt(h uint64) string {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i] >= h })
	if i == len(s.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return s.owners[i]
}

// OwnerSequence returns up to n distinct backends in ring order
// starting at the key's owner — the failover order a gateway walks when
// the owner is unreachable. n ≤ 0 returns all members.
func (r *Ring) OwnerSequence(key string, n int) []string {
	snap := r.snapshot()
	if snap == nil || len(snap.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(snap.backends) {
		n = len(snap.backends)
	}
	h := hashPoint(key)
	start := sort.Search(len(snap.points), func(i int) bool { return snap.points[i] >= h })
	seq := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; i < len(snap.points) && len(seq) < n; i++ {
		owner := snap.owners[(start+i)%len(snap.points)]
		if !seen[owner] {
			seen[owner] = true
			seq = append(seq, owner)
		}
	}
	return seq
}

// OwnerSet returns a key's replicated owner set: the first r distinct
// backends of the OwnerSequence failover order, so OwnerSet(key, 1)
// equals {Owner(key)} and larger r extends along the exact path a
// gateway walks when the primary is unreachable. Replica placement is
// therefore a pure function of (member set, key): every shard and
// gateway derives the same set with no coordination, and a replica is
// always where failover traffic lands next. r ≤ 1 returns just the
// primary; r beyond the member count returns every member.
func (r *Ring) OwnerSet(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	return r.OwnerSequence(key, n)
}

// Members returns the current member set, sorted.
func (r *Ring) Members() []string {
	snap := r.snapshot()
	if snap == nil {
		return nil
	}
	out := make([]string, len(snap.backends))
	copy(out, snap.backends)
	return out
}

// Len counts current members.
func (r *Ring) Len() int {
	snap := r.snapshot()
	if snap == nil {
		return 0
	}
	return len(snap.backends)
}

// String renders the member list for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring%v", r.Members())
}

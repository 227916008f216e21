//go:build !race

package serve

import (
	"context"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// TestRecordingAllocs: recording on the request path allocates nothing
// once a label value has been seen. The race detector's
// instrumentation allocates, so the check runs only without it.
func TestRecordingAllocs(t *testing.T) {
	m := NewMetrics()
	recordEverySeries(m)
	for name, record := range map[string]func(){
		"HTTPRequests.IncInt(200)": func() { m.HTTPRequests.IncInt(200) },
		"CacheHits.Inc()":          func() { m.CacheHits.Inc() },
		`Jobs.Inc("done")`:         func() { m.Jobs.Inc("done") },
		`SolveDone("RandQB_EI")`:   func() { m.SolveDone("RandQB_EI", 3*time.Millisecond, 0.5) },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

// TestFactorAccountingAllocs: on a real QB result and on LU's
// four-factor table, listing the factor names allocates only the
// returned slice and charging the cache cost allocates nothing.
func TestFactorAccountingAllocs(t *testing.T) {
	for _, m := range []core.Method{core.RandQBEI, core.LUCRTP} {
		ap := solveSmall(t, "M3", m)
		if n := testing.AllocsPerRun(100, func() { factorNames(ap) }); n > 1 {
			t.Errorf("%v factorNames: %v allocs per call, want ≤ 1", m, n)
		}
		if n := testing.AllocsPerRun(100, func() { approxBytes(ap) }); n != 0 {
			t.Errorf("%v approxBytes: %v allocs per call, want 0", m, n)
		}
	}
}

// TestSubmitAllocs pins a one-member admission on the two paths that
// solve nothing: a join costs only the spec's hash (11 allocations),
// and a cache hit that hash plus one terminal job.
func TestSubmitAllocs(t *testing.T) {
	spec := validSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(1 << 20)
	cache.Put(spec.Key(), fakeAp(1))
	hits := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4, Cache: cache})
	defer hits.Drain(context.Background())
	for i := 0; i < jobHistory+100; i++ { // fill the job history to its trimmed steady state
		hits.Submit(spec)
	}
	if n := testing.AllocsPerRun(1000, func() { hits.Submit(spec) }); n > 15 {
		t.Errorf("Submit on a cache hit: %v allocs, want ≤ 15", n)
	}

	release := make(chan struct{})
	joins := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4,
		Solve: func(*Spec, *dist.CheckpointStore) (*core.Approximation, error) {
			<-release
			return fakeAp(1), nil
		}})
	defer joins.Drain(context.Background())
	defer close(release)
	if _, outcome, err := joins.Submit(spec); err != nil || outcome != Enqueued {
		t.Fatalf("first Submit: %v %v", outcome, err)
	}
	if n := testing.AllocsPerRun(1000, func() { joins.Submit(spec) }); n > 11 {
		t.Errorf("Submit joining a flight: %v allocs, want ≤ 11", n)
	}
}

// TestCacheAllocs: a memory-tier hit, miss or refresh allocates
// nothing; a new entry costs its list element and entry, and the
// eviction it triggers costs nothing.
func TestCacheAllocs(t *testing.T) {
	ap := fakeAp(1)
	c := NewCache(4 * approxBytes(ap))
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, k := range keys {
		c.Put(k, ap)
	}
	next := 0 // "a": the round robin always puts the key evicted longest ago
	for name, tc := range map[string]struct {
		op   func()
		want float64
	}{
		"Get hit":        {func() { c.Get("h") }, 0},
		"Get miss":       {func() { c.Get("a") }, 0},
		"Put refresh":    {func() { c.Put("h", ap) }, 0},
		"Put with evict": {func() { c.Put(keys[next%len(keys)], ap); next++ }, 2},
	} {
		if n := testing.AllocsPerRun(1000, tc.op); n > tc.want {
			t.Errorf("Cache %s: %v allocs, want ≤ %v", name, n, tc.want)
		}
	}
}

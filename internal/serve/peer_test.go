package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// counters snapshots the peer/disk counters of a Metrics set.
func counters(m *Metrics) (diskHits, peerHits, peerMisses float64) {
	return m.DiskCacheHits.Load(), m.PeerFillHits.Load(), m.PeerFillMisses.Load()
}

// TestSchedulerPeerFillHit: a worker whose PeerFillFunc supplies the
// factors must finish the job as a cached success without calling the
// solver, and install the result into the memory tier so the next
// submission is a plain cache hit.
func TestSchedulerPeerFillHit(t *testing.T) {
	var solves int64
	m := NewMetrics()
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Cache:   NewCache(1 << 20),
		Metrics: m,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			atomic.AddInt64(&solves, 1)
			return fakeAp(1), nil
		},
		PeerFill: func(key string) (*core.Approximation, bool) {
			return testAp(42), true
		},
	})
	spec := validSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	j, outcome, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Enqueued {
		t.Fatalf("outcome = %s, want enqueued", outcome)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := j.Status(); got != StatusDone {
		t.Fatalf("status = %s", got)
	}
	if !j.Cached() {
		t.Fatal("peer-filled job not marked cached")
	}
	if ap, _ := j.Result(); ap == nil || ap.NormA != 42 {
		t.Fatalf("peer-filled result not surfaced: %+v", ap)
	}
	if n := atomic.LoadInt64(&solves); n != 0 {
		t.Fatalf("solver ran %d times despite peer fill", n)
	}
	if _, h, ms := counters(m); h != 1 || ms != 0 {
		t.Fatalf("peer counters hit=%v miss=%v", h, ms)
	}
	// The fetched factors are now in the memory tier: a resubmission is
	// answered at admission without touching the queue or the peer.
	j2, outcome2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome2 != CacheHit || j2.Status() != StatusDone {
		t.Fatalf("resubmission outcome = %s status = %s", outcome2, j2.Status())
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerPeerFillMissFallsBack: a peer miss must fall through to
// the local solver — peer fill can only remove work, never lose it.
func TestSchedulerPeerFillMissFallsBack(t *testing.T) {
	var solves, asks int64
	m := NewMetrics()
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Metrics: m,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			atomic.AddInt64(&solves, 1)
			return fakeAp(3), nil
		},
		PeerFill: func(key string) (*core.Approximation, bool) {
			atomic.AddInt64(&asks, 1)
			return nil, false
		},
	})
	spec := validSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := j.Status(); got != StatusDone {
		t.Fatalf("status = %s", got)
	}
	if j.Cached() {
		t.Fatal("locally solved job marked cached")
	}
	if atomic.LoadInt64(&asks) != 1 || atomic.LoadInt64(&solves) != 1 {
		t.Fatalf("asks=%d solves=%d, want 1/1", asks, solves)
	}
	if _, h, ms := counters(m); h != 0 || ms != 1 {
		t.Fatalf("peer counters hit=%v miss=%v", h, ms)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerDiskTierAdmission: a scheduler reopened over the same
// cache directory answers previously solved keys at admission without
// re-solving, and promotes the hit into the memory tier.
func TestSchedulerDiskTierAdmission(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDiskCache(dir, 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	var solves int64
	solve := func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
		atomic.AddInt64(&solves, 1)
		return testAp(5), nil
	}
	s1 := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 8, Disk: disk, Solve: solve})
	spec := validSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	j, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&solves) != 1 {
		t.Fatalf("solves = %d", solves)
	}

	// "Restart": fresh scheduler, fresh memory cache, same directory.
	disk2, err := OpenDiskCache(dir, 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMetrics()
	mem := NewCache(1 << 20)
	s2 := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8, Cache: mem, Disk: disk2, Metrics: m2, Solve: solve,
	})
	j2, outcome, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != CacheHit || j2.Status() != StatusDone || !j2.Cached() {
		t.Fatalf("warm admission: outcome=%s status=%s cached=%v", outcome, j2.Status(), j2.Cached())
	}
	if ap, _ := j2.Result(); ap == nil || ap.NormA != 5 {
		t.Fatalf("disk-tier result wrong: %+v", ap)
	}
	if atomic.LoadInt64(&solves) != 1 {
		t.Fatalf("warm admission re-solved: solves = %d", solves)
	}
	if dh, _, _ := counters(m2); dh != 1 {
		t.Fatalf("disk hits = %v", dh)
	}
	// Promotion: the key is now in the memory tier.
	if _, ok := mem.Get(spec.Key()); !ok {
		t.Fatal("disk hit not promoted into the memory tier")
	}
	// Batch admission takes the same path.
	jb, outcomes, err := s2.SubmitBatch([]*Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0] != CacheHit || jb[0].Status() != StatusDone {
		t.Fatalf("batch warm admission: %s %s", outcomes[0], jb[0].Status())
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCacheFetchEndpoint drives GET /v1/cache/{key} through the HTTP
// layer: memory hit, disk-only hit, miss, malformed key.
func TestCacheFetchEndpoint(t *testing.T) {
	disk, err := OpenDiskCache(t.TempDir(), 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Disk: disk})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	memKey, diskKey := testKey(1), testKey(2)
	srv.cache.Put(memKey, testAp(1))
	disk.Put(diskKey, testAp(2))

	fetch := func(key string) (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	for _, tc := range []struct {
		key   string
		normA float64
	}{
		{memKey, 1},  // served from the memory tier
		{diskKey, 2}, // memory miss, raw frame relayed from disk
	} {
		resp, body := fetch(tc.key)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", tc.key, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("content type %q", ct)
		}
		ap, err := DecodeApproximation(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("frame for %s does not decode: %v", tc.key, err)
		}
		if ap.NormA != tc.normA {
			t.Fatalf("key %s: NormA = %g, want %g", tc.key, ap.NormA, tc.normA)
		}
	}

	if resp, _ := fetch(testKey(99)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent key = %d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{"short", "ZZ" + testKey(1)[2:], testKey(1)[:63] + "G"} {
		if resp, _ := fetch(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed key %q = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// Cached reports whether the job was satisfied without a fresh solve
// (result-cache hit or singleflight join).
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

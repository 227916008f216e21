package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// TestCachePutEndpoint drives PUT /v1/cache/{key} through the HTTP
// layer: an accepted frame lands in both tiers byte-identical and is
// immediately fetchable; malformed keys and corrupt frames are
// rejected without touching either tier.
func TestCachePutEndpoint(t *testing.T) {
	disk, err := OpenDiskCache(t.TempDir(), 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Disk: disk})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	put := func(key string, frame []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	key := testKey(1)
	var frame bytes.Buffer
	if err := EncodeApproximation(&frame, testAp(7)); err != nil {
		t.Fatal(err)
	}
	if code := put(key, frame.Bytes()); code != http.StatusNoContent {
		t.Fatalf("PUT valid frame = %d, want 204", code)
	}
	// Installed in the memory tier...
	if ap, ok := srv.cache.Get(key); !ok || ap.NormA != 7 {
		t.Fatalf("replica not in memory tier: %v %v", ap, ok)
	}
	// ...and on disk, byte-identical (no re-encode).
	if got, ok := disk.ReadFrame(key); !ok || !bytes.Equal(got, frame.Bytes()) {
		t.Fatalf("replica frame on disk differs from the wire frame (ok=%v)", ok)
	}
	// And now servable to peers and the gateway.
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %d", resp.StatusCode)
	}
	if ap, err := DecodeApproximation(bytes.NewReader(body)); err != nil || ap.NormA != 7 {
		t.Fatalf("round-tripped frame: %v %v", ap, err)
	}

	// Rejections: malformed key, truncated frame, empty body.
	if code := put("not-a-key", frame.Bytes()); code != http.StatusBadRequest {
		t.Fatalf("PUT bad key = %d, want 400", code)
	}
	if code := put(testKey(2), frame.Bytes()[:frame.Len()/2]); code != http.StatusBadRequest {
		t.Fatalf("PUT truncated frame = %d, want 400", code)
	}
	if code := put(testKey(3), nil); code != http.StatusBadRequest {
		t.Fatalf("PUT empty frame = %d, want 400", code)
	}
	if _, ok := disk.ReadFrame(testKey(2)); ok {
		t.Fatal("rejected frame reached the disk tier")
	}
	stores, rejects := srv.metrics.ReplicaStores.Load(), srv.metrics.ReplicaStoreRejects.Load()
	if stores != 1 || rejects != 3 {
		t.Fatalf("replica store counters = %v/%v, want 1 accepted, 3 rejected", stores, rejects)
	}
}

// TestSchedulerReplicateHook: the hook fires exactly once per fresh
// solve with the solved factors — never for cache hits, never for
// peer fills, never for failed solves.
func TestSchedulerReplicateHook(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	replicate := func(key string, ap *core.Approximation) {
		mu.Lock()
		defer mu.Unlock()
		if ap == nil {
			t.Error("replicate hook got nil approximation")
		}
		calls[key]++
	}
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Cache:     NewCache(1 << 20),
		Replicate: replicate,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			return testAp(9), nil
		},
	})
	spec := validSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Cache hit: no second replication.
	if _, outcome, err := s.Submit(spec); err != nil || outcome != CacheHit {
		t.Fatalf("resubmission: %v %v", outcome, err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(calls) != 1 || calls[spec.Key()] != 1 {
		t.Fatalf("replicate calls = %v, want exactly one for %s", calls, spec.Key()[:8])
	}
	mu.Unlock()

	// Peer-filled jobs must not re-replicate: the frame already lives
	// with its owners.
	var peerReplicates int64
	s2 := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Replicate: func(string, *core.Approximation) { atomic.AddInt64(&peerReplicates, 1) },
		PeerFill:  func(string) (*core.Approximation, bool) { return testAp(1), true },
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			t.Error("solver ran despite peer fill")
			return testAp(1), nil
		},
	})
	j2, _, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&peerReplicates); n != 0 {
		t.Fatalf("peer-filled job replicated %d times", n)
	}
}

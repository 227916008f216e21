package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/serve"
)

// testBackend is one real serve.Server with a counting stub solver.
type testBackend struct {
	ts      *httptest.Server
	srv     *serve.Server
	started int64 // solves entered, before the gate
	solves  int64
}

func newTestBackend(t *testing.T, workers, queue int, gate chan struct{}) *testBackend {
	t.Helper()
	b := &testBackend{}
	b.srv = serve.NewServer(serve.Config{
		Workers: workers, QueueDepth: queue,
		Solve: func(spec *serve.Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			atomic.AddInt64(&b.started, 1)
			if gate != nil {
				<-gate
			}
			atomic.AddInt64(&b.solves, 1)
			return &core.Approximation{Method: core.RandQBEI, Rank: 1, Converged: true, NormA: 1}, nil
		},
	})
	b.ts = httptest.NewServer(b.srv)
	t.Cleanup(b.ts.Close)
	return b
}

// specJSON renders a submission body for seed.
func specJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(&serve.Spec{
		Generator: "M3", Method: "qb", Tol: 1e-2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// specKey computes the content key the gateway routes by.
func specKey(t *testing.T, seed int64) string {
	t.Helper()
	s := &serve.Spec{Generator: "M3", Method: "qb", Tol: 1e-2, Seed: seed}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s.Key()
}

// seedOwnedBy finds a seed whose spec key the ring assigns to backend.
func seedOwnedBy(t *testing.T, ring *Ring, backend string) int64 {
	t.Helper()
	for seed := int64(1); seed < 10000; seed++ {
		if owner, ok := ring.Owner(specKey(t, seed)); ok && owner == backend {
			return seed
		}
	}
	t.Fatal("no seed maps to backend")
	return 0
}

func postJob(t *testing.T, base string, body []byte, wait string) (*http.Response, map[string]interface{}) {
	t.Helper()
	url := base + "/v1/jobs"
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]interface{}
	raw, _ := io.ReadAll(resp.Body)
	json.Unmarshal(raw, &v)
	return resp, v
}

func TestGatewayRoutesExactlyOnce(t *testing.T) {
	a := newTestBackend(t, 2, 8, nil)
	b := newTestBackend(t, 2, 8, nil)
	g, err := NewGateway(GatewayConfig{Backends: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	// A duplicate-heavy wave: 4 distinct specs, 3 submissions each.
	// Fleet-wide each spec must solve exactly once — duplicates land on
	// the same shard by construction and dedupe in its cache.
	ids := map[string]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		for rep := 0; rep < 3; rep++ {
			resp, v := postJob(t, gw.URL, specJSON(t, seed), "10s")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d rep %d: status %d (%v)", seed, rep, resp.StatusCode, v)
			}
			if v["status"] != "done" {
				t.Fatalf("seed %d rep %d: job %v", seed, rep, v)
			}
			if id, _ := v["id"].(string); id != "" {
				ids[id] = true
			}
		}
	}
	total := atomic.LoadInt64(&a.solves) + atomic.LoadInt64(&b.solves)
	if total != 4 {
		t.Fatalf("fleet-wide solves = %d, want 4", total)
	}

	// Every recorded id resolves through the gateway's route table.
	for id := range ids {
		resp, err := http.Get(gw.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status proxy for %s = %d", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(gw.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", resp.StatusCode)
	}
}

func TestGatewaySpillsOverOnBackpressure(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	// Backend a: one worker, one queue slot, gated solver.
	a := newTestBackend(t, 1, 1, gate)
	b := newTestBackend(t, 2, 8, nil)
	g, err := NewGateway(GatewayConfig{Backends: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	// Saturate a: one running + one queued job it owns.
	s1 := seedOwnedBy(t, g.ring, a.ts.URL)
	var s2 int64
	for seed := s1 + 1; ; seed++ {
		if owner, _ := g.ring.Owner(specKey(t, seed)); owner == a.ts.URL {
			s2 = seed
			break
		}
	}
	if resp, _ := postJob(t, gw.URL, specJSON(t, s1), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job status %d", resp.StatusCode)
	}
	// Wait until the first job is actually running (its queue slot freed).
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt64(&a.started) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJob(t, gw.URL, specJSON(t, s2), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job status %d", resp.StatusCode)
	}

	// A third spec owned by a: a answers 429, the gateway spills to b.
	var s3 int64
	for seed := s2 + 1; ; seed++ {
		if owner, _ := g.ring.Owner(specKey(t, seed)); owner == a.ts.URL {
			s3 = seed
			break
		}
	}
	resp, v := postJob(t, gw.URL, specJSON(t, s3), "10s")
	if resp.StatusCode != http.StatusOK || v["status"] != "done" {
		t.Fatalf("spillover submit: %d %v", resp.StatusCode, v)
	}
	if atomic.LoadInt64(&b.solves) != 1 {
		t.Fatalf("spillover did not land on b: solves=%d", b.solves)
	}
	if spill := g.metrics.Spillover.Load(); spill == 0 {
		t.Fatal("spillover not counted")
	}
}

func TestGatewayReroutesAroundDeadBackend(t *testing.T) {
	a := newTestBackend(t, 2, 8, nil)
	b := newTestBackend(t, 2, 8, nil)
	g, err := NewGateway(GatewayConfig{
		Backends: []string{a.ts.URL, b.ts.URL},
		Health:   HealthConfig{FailThreshold: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	seed := seedOwnedBy(t, g.ring, a.ts.URL)
	a.ts.Close() // SIGKILL equivalent: dials now fail

	resp, v := postJob(t, gw.URL, specJSON(t, seed), "10s")
	if resp.StatusCode != http.StatusOK || v["status"] != "done" {
		t.Fatalf("reroute submit: %d %v", resp.StatusCode, v)
	}
	if atomic.LoadInt64(&b.solves) != 1 {
		t.Fatalf("reroute did not land on b: solves=%d", b.solves)
	}
	// The forward failure evicted a (FailThreshold=1).
	if g.ring.Len() != 1 || g.ring.Contains(a.ts.URL) {
		t.Fatalf("dead backend still in ring: %v", g.ring.Members())
	}
	reroutes, evictions := g.metrics.Reroutes.Load(), g.metrics.Evictions.Load()
	if reroutes == 0 || evictions == 0 {
		t.Fatalf("reroutes=%v evictions=%v", reroutes, evictions)
	}
	// Metrics endpoint exposes the ring change.
	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"lowrank_gateway_ring_size 1",
		"lowrank_gateway_evictions_total 1",
		"lowrank_gateway_reroutes_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mbody)
		}
	}
}

func TestGatewayBatchSplitsAndMerges(t *testing.T) {
	a := newTestBackend(t, 2, 16, nil)
	b := newTestBackend(t, 2, 16, nil)
	g, err := NewGateway(GatewayConfig{Backends: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	// Three members owned by each shard (ownership depends on the
	// ephemeral httptest ports, so pick seeds by computed owner), plus
	// one duplicate pair.
	var seeds, ownedA, ownedB []int64
	for s := int64(1); s < 10000 && (len(ownedA) < 3 || len(ownedB) < 3); s++ {
		owner, _ := g.ring.Owner(specKey(t, s))
		switch {
		case owner == a.ts.URL && len(ownedA) < 3:
			ownedA = append(ownedA, s)
		case owner == b.ts.URL && len(ownedB) < 3:
			ownedB = append(ownedB, s)
		default:
			continue
		}
		seeds = append(seeds, s)
	}
	if len(seeds) != 6 {
		t.Fatalf("could not find 3 seeds per shard: A=%v B=%v", ownedA, ownedB)
	}
	seeds = append(seeds, seeds[0])
	var jobs []json.RawMessage
	for _, s := range seeds {
		jobs = append(jobs, specJSON(t, s))
	}
	body, _ := json.Marshal(map[string]interface{}{"jobs": jobs})
	resp, err := http.Post(gw.URL+"/v1/batch?wait=10s", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Jobs []struct {
			ID     string `json:"id"`
			Key    string `json:"key"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != len(seeds) {
		t.Fatalf("merged %d replies, want %d", len(out.Jobs), len(seeds))
	}
	// Order preserved: reply i carries the key of spec i.
	for i, s := range seeds {
		if out.Jobs[i].Key != specKey(t, s) {
			t.Fatalf("reply %d has key of the wrong spec", i)
		}
		if out.Jobs[i].Status != "done" {
			t.Fatalf("reply %d status %s", i, out.Jobs[i].Status)
		}
	}
	// The duplicate pair shares a solve: 6 distinct specs → 6 solves.
	if total := atomic.LoadInt64(&a.solves) + atomic.LoadInt64(&b.solves); total != 6 {
		t.Fatalf("fleet-wide solves = %d, want 6", total)
	}
	if atomic.LoadInt64(&a.solves) == 0 || atomic.LoadInt64(&b.solves) == 0 {
		t.Fatal("batch did not split across both shards")
	}
	// Batch-admitted ids route through the gateway too.
	resp2, err := http.Get(gw.URL + "/v1/jobs/" + out.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("batch id proxy = %d", resp2.StatusCode)
	}
}

func TestHealthEvictsAndReadmits(t *testing.T) {
	ring := NewRing(0)
	alive := map[string]*atomic.Bool{"a": {}, "b": {}}
	alive["a"].Store(true)
	alive["b"].Store(true)
	probe := func(ctx context.Context, backend string) error {
		if alive[backend].Load() {
			return nil
		}
		return fmt.Errorf("down")
	}
	var changes []string
	h := NewHealth(ring, []string{"a", "b"}, HealthConfig{
		Interval:      time.Millisecond,
		FailThreshold: 2,
		Probe:         probe,
		OnChange: func(b string, healthy bool) {
			changes = append(changes, fmt.Sprintf("%s=%v", b, healthy))
		},
	})
	if ring.Len() != 2 {
		t.Fatalf("initial ring size %d", ring.Len())
	}
	// One failure: below threshold, still in the ring.
	alive["a"].Store(false)
	h.probeAll()
	if !ring.Contains("a") {
		t.Fatal("evicted below threshold")
	}
	// Second consecutive failure: evicted.
	// (backoff gates the probe; wait it out)
	time.Sleep(2 * time.Millisecond)
	h.probeAll()
	if ring.Contains("a") || h.Snapshot()["a"] {
		t.Fatal("not evicted at threshold")
	}
	// Recovery: one good probe readmits.
	alive["a"].Store(true)
	time.Sleep(5 * time.Millisecond) // past the doubled backoff
	h.probeAll()
	if !ring.Contains("a") || !h.Snapshot()["a"] {
		t.Fatal("not readmitted after recovery")
	}
	want := []string{"a=false", "a=true"}
	if len(changes) != 2 || changes[0] != want[0] || changes[1] != want[1] {
		t.Fatalf("change log %v", changes)
	}
}

func TestPeerClientFill(t *testing.T) {
	owner := newTestBackend(t, 2, 8, nil)

	// Solve one spec directly on the owner so its cache holds the key.
	resp, v := postJob(t, owner.ts.URL, specJSON(t, 7), "10s")
	if resp.StatusCode != http.StatusOK || v["status"] != "done" {
		t.Fatalf("priming solve: %d %v", resp.StatusCode, v)
	}
	key := specKey(t, 7)

	self := "http://self.invalid:1"
	pc := NewPeerClient(PeerConfig{
		Peers:   []string{owner.ts.URL, self},
		Self:    self,
		Timeout: time.Second,
		Logf:    t.Logf,
	})
	if o, _ := pc.ring.Owner(key); o == self {
		t.Skip("key owned by self under this ring; peer fill not exercised")
	}
	ap, ok := pc.Fill(key)
	if !ok || ap == nil || ap.Rank != 1 || !ap.Converged {
		t.Fatalf("peer fill failed: %v %v", ap, ok)
	}
	// A key the owner never solved misses.
	if _, ok := pc.Fill(specLikeKey(99)); ok {
		t.Fatal("absent key filled")
	}
	// Keys owned by self short-circuit to a miss without a request.
	selfOwned := ""
	for i := 0; i < 10000; i++ {
		if o, _ := pc.ring.Owner(specLikeKey(i)); o == self {
			selfOwned = specLikeKey(i)
			break
		}
	}
	if selfOwned != "" {
		if _, ok := pc.Fill(selfOwned); ok {
			t.Fatal("self-owned key filled from a peer")
		}
	}
	// A dead owner is a miss, not an error.
	owner.ts.Close()
	if _, ok := pc.Fill(key); ok {
		t.Fatal("dead owner filled")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	owner.srv.Drain(ctx)
}

// Contains reports membership.
func (r *Ring) Contains(backend string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[backend]
}

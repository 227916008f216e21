package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/serve"
)

// stubShard is a raw counting backend for gateway-mechanism tests: it
// answers every submit with a canned job view, optionally blocking on
// gate, without the weight of a real serve.Server.
func stubShard(t *testing.T, gate chan struct{}, cached bool) (*httptest.Server, *int64) {
	t.Helper()
	var submits int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			n := atomic.AddInt64(&submits, 1)
			if gate != nil {
				<-gate
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"id":"job-%d","status":"done","cached":%v,"outcome":"cache_hit"}`, n, cached)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts, &submits
}

// TestGatewayDuplicateBurstSolvesOnce: a burst of identical cold
// submits through the gateway solves exactly once fleet-wide, with no
// gateway-side coalescing: every member forwards to the key's shard,
// whose own singleflight joins them onto one job. The second case runs
// the same burst after the key's primary shard is closed, so every
// member reroutes to the next shard in the key's ring sequence and
// dedupes there.
func TestGatewayDuplicateBurstSolvesOnce(t *testing.T) {
	a := newCountingBackend(t)
	b := newCountingBackend(t)
	g, err := NewGateway(GatewayConfig{Backends: []string{a.ts.URL, b.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	const clients = 8
	burst := func(seed int64) {
		t.Helper()
		var wg sync.WaitGroup
		codes := make([]int, clients)
		ids := make([]string, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, v := postJob(t, gw.URL, specJSON(t, seed), "10s")
				codes[i] = resp.StatusCode
				ids[i], _ = v["id"].(string)
			}(i)
		}
		wg.Wait()
		for i := range codes {
			if codes[i] != http.StatusOK {
				t.Fatalf("seed %d client %d: status %d", seed, i, codes[i])
			}
			if ids[i] == "" {
				t.Fatalf("seed %d client %d: no job id", seed, i)
			}
		}
	}
	solves := func() int64 { return atomic.LoadInt64(&a.solves) + atomic.LoadInt64(&b.solves) }
	submits := func() int64 { return atomic.LoadInt64(&a.submits) + atomic.LoadInt64(&b.submits) }

	// Case 1: a cold burst at the key's owner.
	burst(seedOwnedBy(t, g.ring, a.ts.URL))
	if n := solves(); n != 1 {
		t.Fatalf("cold burst: fleet-wide solves = %d, want 1", n)
	}
	t.Logf("cold burst: %d clients, %d shard submits, %d solve", clients, submits(), solves())

	// Case 2: the same burst on a fresh key after its primary is gone.
	seed := seedOwnedBy(t, g.ring, a.ts.URL) + 1
	for owner, _ := g.ring.Owner(specKey(t, seed)); owner != a.ts.URL; owner, _ = g.ring.Owner(specKey(t, seed)) {
		seed++
	}
	a.ts.Close()
	before, beforeSubmits := solves(), submits()
	burst(seed)
	if n := solves() - before; n != 1 {
		t.Fatalf("rerouted burst: fleet-wide solves = %d, want 1", n)
	}
	t.Logf("rerouted burst: %d clients, %d shard submits, %d solve", clients, submits()-beforeSubmits, solves()-before)
}

// countingBackend is a real serve.Server whose solver sleeps long
// enough for a concurrent burst to overlap it, counting both the
// submits that reach the shard and the solves it runs.
type countingBackend struct {
	ts              *httptest.Server
	solves, submits int64
}

func newCountingBackend(t *testing.T) *countingBackend {
	t.Helper()
	b := &countingBackend{}
	srv := serve.NewServer(serve.Config{
		Workers: 2, QueueDepth: 16,
		Solve: func(*serve.Spec, *dist.CheckpointStore) (*core.Approximation, error) {
			time.Sleep(50 * time.Millisecond)
			atomic.AddInt64(&b.solves, 1)
			return &core.Approximation{Method: core.RandQBEI, Rank: 1, Converged: true, NormA: 1}, nil
		},
	})
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			atomic.AddInt64(&b.submits, 1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

// flakyTransport fails the first `failures` round trips with a dial
// error, then passes through — a deterministic stand-in for a fleet
// that is briefly unreachable.
type flakyTransport struct {
	remaining int64
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if atomic.AddInt64(&f.remaining, -1) >= 0 {
		return nil, fmt.Errorf("dial tcp: connection refused (simulated)")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestGatewayRetryBudgetRecovers: with every candidate dial-failing,
// the gateway spends backoff passes instead of failing the client; the
// fleet recovering within the budget turns a would-be 502 into a 200.
func TestGatewayRetryBudgetRecovers(t *testing.T) {
	stub, submits := stubShard(t, nil, false)
	flaky := &flakyTransport{remaining: 2} // pass 0 and 1 fail, pass 2 lands
	g, err := NewGateway(GatewayConfig{
		Backends:    []string{stub.URL},
		Client:      &http.Client{Transport: flaky},
		RetryBudget: 4,
		RetryBase:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	resp, v := postJob(t, gw.URL, specJSON(t, 1), "10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%v), want 200 after retry passes", resp.StatusCode, v)
	}
	if n := atomic.LoadInt64(submits); n != 1 {
		t.Fatalf("upstream submits = %d, want 1", n)
	}
	passes, exhausted := g.metrics.RetryPasses.Load(), g.metrics.RetryExhausted.Load()
	if passes != 2 {
		t.Fatalf("retry passes = %v, want 2", passes)
	}
	if exhausted != 0 {
		t.Fatalf("retry budget exhausted %v times on a recovered request", exhausted)
	}
}

// TestGatewayRetryBudgetExhausted: a fleet that never recovers burns
// the whole budget and surfaces 502 with the exhaustion counted.
func TestGatewayRetryBudgetExhausted(t *testing.T) {
	stub, _ := stubShard(t, nil, false)
	flaky := &flakyTransport{remaining: 1 << 30} // never recovers
	g, err := NewGateway(GatewayConfig{
		Backends:    []string{stub.URL},
		Client:      &http.Client{Transport: flaky},
		RetryBudget: 3,
		RetryBase:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	resp, _ := postJob(t, gw.URL, specJSON(t, 1), "")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	passes, exhausted := g.metrics.RetryPasses.Load(), g.metrics.RetryExhausted.Load()
	if passes != 3 {
		t.Fatalf("retry passes = %v, want 3", passes)
	}
	if exhausted != 1 {
		t.Fatalf("retry exhausted = %v, want 1", exhausted)
	}
}

// TestGatewayReplicaReadAccounting: a cached answer served by a
// backend that is not the key's full-ring primary counts as a replica
// read; the same cached answer from the primary itself does not.
func TestGatewayReplicaReadAccounting(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // dial errors from now on
	replica, _ := stubShard(t, nil, true)

	g, err := NewGateway(GatewayConfig{Backends: []string{deadURL, replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	// A key whose true primary is the dead backend: the reroute lands
	// on the replica, whose cached reply is a replica read.
	seed := seedOwnedBy(t, g.fullRing, deadURL)
	resp, _ := postJob(t, gw.URL, specJSON(t, seed), "10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via reroute", resp.StatusCode)
	}
	if reads := g.metrics.ReplicaReads.Load(); reads != 1 {
		t.Fatalf("replica reads = %v, want 1", reads)
	}

	// A key the replica owns outright: cached, but primary-served.
	seed = seedOwnedBy(t, g.fullRing, replica.URL)
	resp, _ = postJob(t, gw.URL, specJSON(t, seed), "10s")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from primary", resp.StatusCode)
	}
	if reads := g.metrics.ReplicaReads.Load(); reads != 1 {
		t.Fatalf("replica reads = %v after primary-served hit, want still 1", reads)
	}
}

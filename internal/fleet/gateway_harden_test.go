package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestGatewayCoalescesSubmits: N clients racing the same cold key must
// produce exactly one upstream submit; the followers relay the
// leader's reply and count as coalesce hits.
func TestGatewayCoalescesSubmits(t *testing.T) {
	gate := make(chan struct{})
	stub, submits := stubShard(t, gate, false)
	g, err := NewGateway(GatewayConfig{Backends: []string{stub.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g)
	defer gw.Close()

	const clients = 6
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, v := postJob(t, gw.URL, specJSON(t, 1), "10s")
			codes[i] = resp.StatusCode
			bodies[i], _ = v["id"].(string)
		}(i)
	}

	// Wait until every follower has joined the leader's flight, then
	// release the upstream solve.
	deadline := time.Now().Add(5 * time.Second)
	for {
		coalesced := g.metrics.Coalesced.Load()
		if coalesced == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %v, want %d", coalesced, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := atomic.LoadInt64(submits); n != 1 {
		t.Fatalf("upstream submits = %d, want 1 (coalescing leaked)", n)
	}
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d relayed %q, leader saw %q", i, bodies[i], bodies[0])
		}
	}
	// The flight table must be empty again: a later identical submit
	// is a fresh leader, not a stale join.
	g.mu.Lock()
	inflight := len(g.flights)
	g.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d stale flights after settle", inflight)
	}
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

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// TestServerConcurrentClients is the serving-layer acceptance test
// (run under -race by verify.sh): 40 concurrent clients — 8 distinct
// requests, each submitted by 5 clients — drive a 4-worker daemon and
// the test asserts
//
//  1. exactly 8 solves happen (singleflight absorbs every duplicate),
//  2. a full resubmission wave is answered entirely from the cache
//     with zero further solves,
//  3. queue overflow returns 429 with a Retry-After header,
//  4. drain completes queued and in-flight jobs and rejects new work,
//  5. /metrics counters reconcile exactly with the observed outcomes.
func TestServerConcurrentClients(t *testing.T) {
	const (
		distinct = 8
		dupes    = 5
		clients  = distinct * dupes // 40 ≥ 32
		workers  = 4
	)
	var solves atomic.Int64
	gate := make(chan struct{})
	solve := func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
		solves.Add(1)
		<-gate
		return &core.Approximation{Method: core.RandQBEI, Rank: int(spec.Seed), Converged: true, NormA: 1}, nil
	}
	metrics := NewMetrics()
	srv := NewServer(Config{Workers: workers, QueueDepth: 2 * clients, Solve: solve, Metrics: metrics})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	specBody := func(i int) string {
		return fmt.Sprintf(`{"matrix":"M3","method":"RandQB_EI","tol":1e-2,"seed":%d}`, i+1)
	}
	post := func(body, query string) (int, submitResponse) {
		resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, submitResponse{}
		}
		defer resp.Body.Close()
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Errorf("decoding response: %v", err)
		}
		return resp.StatusCode, sr
	}

	// Wave 1: all 40 clients submit concurrently while the workers are
	// gated, so every duplicate must join its key's single flight.
	var wg sync.WaitGroup
	var enq, joined atomic.Int64
	ids := make([]string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, sr := post(specBody(c%distinct), "")
			switch sr.Outcome {
			case Enqueued:
				enq.Add(1)
				if code != http.StatusAccepted {
					t.Errorf("enqueued response code %d, want 202", code)
				}
			case Joined:
				joined.Add(1)
			default:
				t.Errorf("wave-1 outcome %q (code %d)", sr.Outcome, code)
			}
			ids[c] = sr.ID
		}(c)
	}
	wg.Wait()
	if enq.Load() != distinct || joined.Load() != clients-distinct {
		t.Fatalf("admission split %d enqueued / %d joined, want %d/%d",
			enq.Load(), joined.Load(), distinct, clients-distinct)
	}

	// Release the workers; every client blocks until its job is done.
	close(gate)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[c] + "?wait=30s")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var v View
			json.NewDecoder(resp.Body).Decode(&v)
			if v.Status != StatusDone {
				t.Errorf("client %d: job %s status %s", c, ids[c], v.Status)
				return
			}
			if want := c%distinct + 1; v.Result == nil || v.Result.Rank != want {
				t.Errorf("client %d got rank %v, want %d (wrong result routed)", c, v.Result, want)
			}
		}(c)
	}
	wg.Wait()
	if got := solves.Load(); got != distinct {
		t.Fatalf("%d solves for %d distinct requests (singleflight leak)", got, distinct)
	}

	// Wave 2: full resubmission — all cache hits, zero new solves.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, sr := post(specBody(c%distinct), "")
			if sr.Outcome != CacheHit || code != http.StatusOK || !sr.Cached || sr.Status != StatusDone {
				t.Errorf("wave-2 client %d: outcome=%q code=%d cached=%v", c, sr.Outcome, code, sr.Cached)
			}
			if want := c%distinct + 1; sr.Result == nil || sr.Result.Rank != want {
				t.Errorf("wave-2 client %d wrong cached result", c)
			}
		}(c)
	}
	wg.Wait()
	if got := solves.Load(); got != distinct {
		t.Fatalf("cache hits recomputed: %d solves, want %d", got, distinct)
	}

	// Queue overflow: a tiny second daemon with its workers gated fills
	// its queue; the next submission bounces with 429 + Retry-After.
	gate2 := make(chan struct{})
	var solves2 atomic.Int64
	slow := func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
		solves2.Add(1)
		<-gate2
		return &core.Approximation{Method: core.RandQBEI, Rank: 1, Converged: true}, nil
	}
	srv2 := NewServer(Config{Workers: 1, QueueDepth: 2, Solve: slow})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	// Worker occupancy is asynchronous: fill until 429 or a safety cap.
	var overflowed bool
	var retryAfter string
	overflowIDs := []string{}
	for i := 0; i < 16 && !overflowed; i++ {
		resp, err := http.Post(ts2.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"matrix":"M3","method":"qb","tol":1e-2,"seed":%d}`, 100+i)))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			overflowed = true
			retryAfter = resp.Header.Get("Retry-After")
		} else {
			overflowIDs = append(overflowIDs, sr.ID)
		}
	}
	if !overflowed {
		t.Fatal("queue never overflowed into 429")
	}
	if retryAfter != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", retryAfter)
	}

	// Drain daemon 2 while its accepted jobs are still gated: drain
	// must complete every accepted job (in-flight and queued).
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv2.Drain(ctx)
	}()
	time.Sleep(10 * time.Millisecond) // let drain close admission
	close(gate2)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range overflowIDs {
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Status != StatusDone {
			t.Fatalf("job %s not completed by drain: %s", id, v.Status)
		}
	}
	if int(solves2.Load()) != len(overflowIDs) {
		t.Fatalf("drain solved %d jobs, accepted %d", solves2.Load(), len(overflowIDs))
	}
	// New work is rejected with 503 after drain.
	resp, err := http.Post(ts2.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"matrix":"M3","method":"qb","tol":1e-2,"seed":999}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit %d, want 503", resp.StatusCode)
	}

	// Metrics reconciliation on daemon 1: 80 admissions split into
	// 8 misses + 32 singleflight joins + 40 cache hits, 8 solves, and
	// 8 done jobs; queue and in-flight gauges are back to zero.
	hits, sf, misses := metrics.CacheHits.Load(), metrics.SingleflightHits.Load(), metrics.CacheMisses.Load()
	solved := metrics.Solves.Load("RandQB_EI")
	if misses != distinct || sf != clients-distinct || hits != clients || solved != distinct {
		t.Fatalf("metrics: hits=%v joins=%v misses=%v solves=%v, want %d/%d/%d/%d",
			hits, sf, misses, solved, clients, clients-distinct, distinct, distinct)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, rerr := mresp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	mresp.Body.Close()
	text := sb.String()
	for metric, want := range map[string]float64{
		"lowrankd_cache_hits_total":                 float64(clients),
		"lowrankd_singleflight_hits_total":          float64(clients - distinct),
		"lowrankd_cache_misses_total":               float64(distinct),
		`lowrankd_jobs_total{status="done"}`:        float64(distinct),
		`lowrankd_solves_total{method="RandQB_EI"}`: float64(distinct),
		"lowrankd_queue_depth":                      0,
		"lowrankd_inflight_jobs":                    0,
		"lowrankd_cache_entries":                    float64(distinct),
	} {
		got, ok := promValue(text, metric)
		if !ok || got != want {
			t.Errorf("/metrics %s = %v (found=%v), want %v", metric, got, ok, want)
		}
	}
	// The histogram count agrees with the solve counter.
	if got, ok := promValue(text, `lowrankd_solve_seconds_count{method="RandQB_EI"}`); !ok || got != distinct {
		t.Errorf("solve histogram count %v, want %d", got, distinct)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// promValue extracts a sample value from Prometheus text format.
func promValue(text, name string) (float64, bool) {
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + " ([0-9.eE+-]+)$")
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil
}

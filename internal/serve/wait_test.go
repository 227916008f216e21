package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMalformedWaitAdmitsNothing: a bad ?wait on either submit endpoint
// is a 400 that admits nothing. It is parsed before admission, so the
// job is not queued or solved behind the error, and a cache hit does
// not silently ignore it.
func TestMalformedWaitAdmitsNothing(t *testing.T) {
	var solves int64
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, Solve: countingSolve(&solves)})
	m := srv.metrics
	const spec = `{"matrix":"M3","method":"RandQB_EI","tol":0.01,"seed":5}`
	post := func(path, body string) int {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, path := range []string{"/v1/jobs?wait=bogus", "/v1/batch?wait=bogus"} {
		body := spec
		if strings.HasPrefix(path, "/v1/batch") {
			body = `{"jobs":[` + spec + `]}`
		}
		if code := post(path, body); code != http.StatusBadRequest {
			t.Fatalf("POST %s: %d, want 400", path, code)
		}
		if depth, _ := srv.sched.QueueDepth(); depth != 0 || m.CacheMisses.Load() != 0 {
			t.Fatalf("POST %s admitted work: queue depth %d, lowrankd_cache_misses_total %v", path, depth, m.CacheMisses.Load())
		}
	}

	// Now on a cache hit.
	if code := post("/v1/jobs?wait=60s", spec); code != http.StatusOK {
		t.Fatalf("priming solve: %d", code)
	}
	hits := m.CacheHits.Load()
	for _, path := range []string{"/v1/jobs?wait=bogus", "/v1/batch?wait=bogus"} {
		body := spec
		if strings.HasPrefix(path, "/v1/batch") {
			body = `{"jobs":[` + spec + `]}`
		}
		if code := post(path, body); code != http.StatusBadRequest {
			t.Fatalf("POST %s on a cache hit: %d, want 400", path, code)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&solves); got != 1 || m.CacheMisses.Load() != 1 || m.CacheHits.Load() != hits {
		t.Fatalf("%d solves, %v misses, %v → %v hits; want only the priming solve", got, m.CacheMisses.Load(), hits, m.CacheHits.Load())
	}
}

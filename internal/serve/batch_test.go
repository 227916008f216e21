package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
)

func countingSolve(n *int64) SolveFunc {
	return func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
		atomic.AddInt64(n, 1)
		return fakeAp(int(spec.Seed)), nil
	}
}

func batchSpec(seed int64) *Spec {
	s := validSpec()
	s.Seed = seed
	return s
}

func TestSubmitBatchSolvesEveryMemberOnce(t *testing.T) {
	var solves int64
	m := NewMetrics()
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Cache:   NewCache(1 << 20),
		Solve:   countingSolve(&solves),
		Metrics: m,
	})
	specs := []*Spec{batchSpec(1), batchSpec(2), batchSpec(3), batchSpec(2)} // one duplicate
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	jobs, outcomes, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 || len(outcomes) != 4 {
		t.Fatalf("got %d jobs, %d outcomes", len(jobs), len(outcomes))
	}
	if outcomes[0] != Enqueued || outcomes[1] != Enqueued || outcomes[2] != Enqueued {
		t.Fatalf("fresh members not enqueued: %v", outcomes)
	}
	if outcomes[3] != Joined || jobs[3] != jobs[1] {
		t.Fatal("duplicate key within the batch must join the first member's job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		if j.Status() != StatusDone {
			t.Fatalf("job %s status %s", j.ID, j.Status())
		}
	}
	if got := atomic.LoadInt64(&solves); got != 3 {
		t.Fatalf("expected 3 solves for 3 distinct specs, got %d", got)
	}
	// Resubmitting the batch must be answered entirely from the cache.
	jobs2, outcomes2, err := s.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outcomes2 {
		if o != CacheHit {
			t.Fatalf("resubmit member %d outcome %s, want cache_hit", i, o)
		}
		if jobs2[i].Status() != StatusDone {
			t.Fatalf("resubmit member %d not terminal", i)
		}
	}
	if got := atomic.LoadInt64(&solves); got != 3 {
		t.Fatalf("cache-hit resubmit recomputed: %d solves", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatchMixesSoloAndBatched(t *testing.T) {
	var solves int64
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Solve: countingSolve(&solves),
	})
	small := batchSpec(10)
	big := batchSpec(11)
	big.Procs = 2 // distributed runs are not batch-eligible
	for _, sp := range []*Spec{small, big} {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if small.BatchEligible() == false || big.BatchEligible() {
		t.Fatal("eligibility heuristic broken")
	}
	jobs, _, err := s.SubmitBatch([]*Spec{small, big})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt64(&solves); got != 2 {
		t.Fatalf("expected 2 solves, got %d", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatchQueueFullIsAllOrNothing(t *testing.T) {
	gate := make(chan struct{})
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 1,
		Solve: func(*Spec, *dist.CheckpointStore) (*core.Approximation, error) {
			<-gate
			return fakeAp(1), nil
		},
	})
	// Occupy the worker and fill the single queue slot.
	blocker := batchSpec(20)
	filler := batchSpec(21)
	fresh := batchSpec(22)
	for _, sp := range []*Spec{blocker, filler, fresh} {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	jb, _, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// The blocker may still be queued; wait until the worker picks it up
	// so the queue is empty, then fill the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := s.QueueDepth(); d == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	jf, _, err := s.Submit(filler)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBatch([]*Spec{fresh}); err != ErrQueueFull {
		t.Fatalf("full queue: got err %v, want ErrQueueFull", err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jb.Wait(ctx)
	jf.Wait(ctx)
	// The rejected batch must have left no singleflight state behind: a
	// fresh submit of the same spec is Enqueued, not Joined.
	j2, outcome, err := s.Submit(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Enqueued {
		t.Fatalf("post-rejection submit outcome %s, want enqueued", outcome)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatchExpiredMemberNeverSolves(t *testing.T) {
	gate := make(chan struct{})
	var solves int64
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			<-gate
			atomic.AddInt64(&solves, 1)
			return fakeAp(1), nil
		},
	})
	blocker := batchSpec(30)
	expiring := batchSpec(31)
	expiring.DeadlineMS = 1
	for _, sp := range []*Spec{blocker, expiring} {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	jb, _, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := s.SubmitBatch([]*Spec{expiring})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the member's deadline lapse in queue
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jb.Wait(ctx)
	jobs[0].Wait(ctx)
	if got := jobs[0].Status(); got != StatusExpired {
		t.Fatalf("expired batch member status %s", got)
	}
	if got := atomic.LoadInt64(&solves); got != 1 {
		t.Fatalf("expected only the blocker to solve, got %d solves", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatchDraining(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	sp := batchSpec(40)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitBatch([]*Spec{sp}); err != ErrDraining {
		t.Fatalf("draining: got err %v, want ErrDraining", err)
	}
}

func TestBatchEndpoint(t *testing.T) {
	var solves int64
	srv := NewServer(Config{
		Workers: 2, QueueDepth: 8,
		Solve: countingSolve(&solves),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"jobs":[
		{"matrix":"M1","method":"RandQB_EI","tol":1e-2,"seed":1},
		{"matrix":"M2","method":"RandQB_EI","tol":1e-2,"seed":2}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch?wait=30s", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []struct {
			View
			Outcome Outcome `json:"outcome"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("got %d jobs", len(out.Jobs))
	}
	for i, j := range out.Jobs {
		if j.Status != StatusDone {
			t.Fatalf("member %d status %s", i, j.Status)
		}
		if j.Outcome != Enqueued {
			t.Fatalf("member %d outcome %s", i, j.Outcome)
		}
	}
	if got := atomic.LoadInt64(&solves); got != 2 {
		t.Fatalf("expected 2 solves, got %d", got)
	}

	// Malformed requests are rejected up front.
	for _, bad := range []string{
		`{"jobs":[]}`,
		`{"jobs":[{"matrix":"M9","method":"qb","tol":1e-2}]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %q: status %d", bad, resp.StatusCode)
		}
	}
}

// BenchmarkSubmitBatchSmall measures the /v1/batch carrier: 12 distinct
// small specs (M1–M6 × 2 seeds, τ 0.1, k 8) admitted as one SubmitBatch
// against the same 12 admitted by separate Submit calls, on GOMAXPROCS
// workers with no result cache, so every iteration solves all 12.
func BenchmarkSubmitBatchSmall(b *testing.B) {
	for _, method := range []string{"CUR", "RandQB_EI"} {
		var specs []*Spec
		for _, label := range gen.Labels() {
			for seed := int64(1); seed <= 2; seed++ {
				sp := &Spec{Generator: label, Method: method, Tol: 0.1, BlockSize: 8, Seed: seed}
				if err := sp.Validate(); err != nil {
					b.Fatal(err)
				}
				specs = append(specs, sp)
			}
		}
		for _, arm := range []string{"carrier", "solo"} {
			b.Run(method+"/"+arm, func(b *testing.B) {
				s := NewScheduler(SchedulerConfig{Workers: runtime.GOMAXPROCS(0), QueueDepth: 2 * len(specs)})
				defer s.Drain(context.Background())
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					jobs := make([]*Job, 0, len(specs))
					if arm == "carrier" {
						js, _, err := s.SubmitBatch(specs)
						if err != nil {
							b.Fatal(err)
						}
						jobs = js
					} else {
						for _, sp := range specs {
							j, _, err := s.Submit(sp)
							if err != nil {
								b.Fatal(err)
							}
							jobs = append(jobs, j)
						}
					}
					for _, j := range jobs {
						if err := j.Wait(ctx); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

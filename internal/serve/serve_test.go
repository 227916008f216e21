package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/lucrtp"
	"sparselr/internal/sparse"
)

// mmBody is a minimal MatrixMarket upload.
const mmBody = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n"

func validSpec() *Spec {
	return &Spec{Generator: "M3", Scale: "small", Method: "RandQB_EI", Tol: 1e-2, Seed: 1}
}

func TestSpecValidate(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.BlockSize != DefaultBlockSize {
		t.Fatalf("block size not defaulted: %d", s.BlockSize)
	}
	bad := []*Spec{
		{}, // no matrix source
		{Generator: "M3", MatrixMarket: "x", Method: "qb", Tol: 1e-2}, // both sources
		{Generator: "M9", Method: "qb", Tol: 1e-2},                    // unknown label
		{Generator: "M3", Method: "nope", Tol: 1e-2},                  // unknown method
		{Generator: "M3", Method: "qb"},                               // no tol, no max_rank
		{Generator: "M3", Method: "qb", Tol: -1},                      // negative tol
		{Generator: "M3", Method: "qb", Tol: 1e-2, Power: 7},          // power out of range
		{Generator: "M3", Method: "qb", Tol: 1e-2, Sketch: "xyz"},     // unknown sketch
		{Generator: "M3", Method: "qb", Tol: 1e-2, SketchNNZ: 4},      // nnz without sparsesign
		{Generator: "M3", Method: "qb", Tol: 1e-2, Scale: "huge"},     // unknown scale
		{Generator: "M3", Method: "tsvd", Tol: 1e-2, Procs: 4},        // tsvd has no dist impl
		{Generator: "M3", Method: "qb", Tol: 1e-2, Procs: -1},         // negative procs
		{Generator: "M3", Method: "qb", Tol: math.NaN()},              // NaN tol runs to full rank
		{Generator: "M3", Method: "qb", Tol: math.Inf(1)},             // infinite tol
		{Generator: "M3", Method: "qb", Tol: math.Inf(-1), MaxRank: 8},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// The query form of an upload parses "NaN" and "Inf" as floats.
	for _, tol := range []string{"NaN", "Inf", "-Inf"} {
		s, err := ParseSubmitBody("text/plain", []byte(mmBody), url.Values{"tol": {tol}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("?tol=%s accepted: Tol %v", tol, s.Tol)
		}
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	a := &Spec{Generator: "M3", Method: "qb", Tol: 1e-2, Seed: 3, Sketch: "sparse", SketchNNZ: 4}
	b := &Spec{Generator: "M3", Scale: "small", Method: "RandQB_EI", Tol: 1e-2, Seed: 3, Sketch: "sparsesign", SketchNNZ: 4}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("alias spellings should share a cache key")
	}
	c := &Spec{Generator: "M3", Method: "qb", Tol: 1e-2, Seed: 4, Sketch: "sparse", SketchNNZ: 4}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("different seeds must not share a cache key")
	}
	// Upload digests: same bytes → same key, different bytes → different.
	m1 := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n"
	m2 := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.0\n"
	u1 := &Spec{MatrixMarket: m1, Method: "lu", Tol: 1e-2}
	u1b := &Spec{MatrixMarket: m1, Method: "lu", Tol: 1e-2}
	u2 := &Spec{MatrixMarket: m2, Method: "lu", Tol: 1e-2}
	for _, s := range []*Spec{u1, u1b, u2} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if u1.Key() != u1b.Key() || u1.Key() == u2.Key() {
		t.Fatal("upload digesting broken")
	}
	// Operational knobs must not change the key.
	d := validSpec()
	e := validSpec()
	e.DeadlineMS = 5000
	e.CheckpointEvery = 2
	if d.Validate() != nil || e.Validate() != nil {
		t.Fatal("validate failed")
	}
	if d.Key() != e.Key() {
		t.Fatal("deadline/checkpoint knobs must not affect the cache key")
	}
}

// Procs 0 and 1 run the same one-rank world, so they share a key, and
// it is the key a procs-omitted spec always had: existing -cachedir
// entries stay valid.
func TestSpecKeyProcsOneIsZero(t *testing.T) {
	omitted := &Spec{Generator: "M3", Method: "LU_CRTP", Tol: 1e-2, Seed: 1}
	one := &Spec{Generator: "M3", Method: "lu", Tol: 1e-2, Seed: 1, Procs: 1}
	two := &Spec{Generator: "M3", Method: "lu", Tol: 1e-2, Seed: 1, Procs: 2}
	for _, s := range []*Spec{omitted, one, two} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	const want = "8fe94a2074da6609d5a45cf5d03500f87cfb4e790bc4b1510c343b9072b8ebd8"
	if omitted.Key() != want {
		t.Fatalf("procs-omitted key %s, want the stable %s", omitted.Key(), want)
	}
	if one.Key() != want {
		t.Fatalf("procs=1 key %s, want the procs-omitted %s", one.Key(), want)
	}
	if two.Key() == want {
		t.Fatal("procs=2 must not share the one-rank key")
	}
}

// A procs-omitted LU_CRTP job is a one-rank world: it reports its
// modeled time, and /metrics counts it.
func TestOneRankSolveReportsVirtualTime(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	resp, err := http.Post(ts.URL+"/v1/jobs?wait=60s", "application/json",
		strings.NewReader(`{"matrix":"M3","method":"LU_CRTP","tol":0.01,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.Status != StatusDone || sr.Result == nil || sr.Result.VirtualTime <= 0 {
		t.Fatalf("one-rank LU_CRTP job: %+v, want done with virtual_time > 0", sr)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if series := `lowrankd_dist_virtual_seconds_total{method="LU_CRTP"}`; !strings.Contains(string(body), series) {
		t.Fatalf("metrics missing %s:\n%s", series, body)
	}
}

func fakeAp(rank int) *core.Approximation {
	return &core.Approximation{Method: core.RandQBEI, Rank: rank, Converged: true, NormA: 1}
}

func TestCacheLRUByteBudget(t *testing.T) {
	one := approxBytes(fakeAp(1))
	c := NewCache(3 * one)
	c.Put("a", fakeAp(1))
	c.Put("b", fakeAp(2))
	c.Put("c", fakeAp(3))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted under budget")
	}
	// Touch "a" and "c" so "b" is the LRU victim.
	c.Get("c")
	c.Put("d", fakeAp(4))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim not evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	entries, used, budget, ev := c.Stats()
	if entries != 3 || used > budget || ev != 1 {
		t.Fatalf("stats: entries=%d used=%d budget=%d evictions=%d", entries, used, budget, ev)
	}
	// An entry over the whole budget is refused outright.
	big := NewCache(1)
	big.Put("x", fakeAp(9))
	if _, ok := big.Get("x"); ok {
		t.Fatal("over-budget entry admitted")
	}
	// A disabled cache never stores.
	off := NewCache(0)
	off.Put("x", fakeAp(9))
	if _, ok := off.Get("x"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestSchedulerDeadlineAndCancel(t *testing.T) {
	gate := make(chan struct{})
	s := NewScheduler(SchedulerConfig{
		Workers: 1, QueueDepth: 8,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			<-gate
			return fakeAp(1), nil
		},
	})
	// Occupy the single worker.
	blocker := validSpec()
	if err := blocker.Validate(); err != nil {
		t.Fatal(err)
	}
	jb, _, err := s.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	// A queued job whose deadline passes before a worker frees up must
	// expire without solving.
	expired := validSpec()
	expired.Seed = 99
	expired.DeadlineMS = 1
	if err := expired.Validate(); err != nil {
		t.Fatal(err)
	}
	je, _, err := s.Submit(expired)
	if err != nil {
		t.Fatal(err)
	}
	// A queued job canceled before running never solves.
	canceled := validSpec()
	canceled.Seed = 100
	if err := canceled.Validate(); err != nil {
		t.Fatal(err)
	}
	jc, _, err := s.Submit(canceled)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(jc.ID) {
		t.Fatal("cancel of queued job failed")
	}
	if s.Cancel(jc.ID) {
		t.Fatal("double cancel reported success")
	}
	time.Sleep(5 * time.Millisecond) // let the deadline lapse
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jb.Wait(ctx)
	je.Wait(ctx)
	jc.Wait(ctx)
	if got := jb.Status(); got != StatusDone {
		t.Fatalf("blocker status %s", got)
	}
	if got := je.Status(); got != StatusExpired {
		t.Fatalf("expired job status %s", got)
	}
	if got := jc.Status(); got != StatusCanceled {
		t.Fatalf("canceled job status %s", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerErrorCodes maps each failure class to its distinct HTTP
// status, mirroring cmd/lowrank's exit codes.
func TestServerErrorCodes(t *testing.T) {
	fail := map[string]error{
		"breakdown": fmt.Errorf("block: %w", lucrtp.ErrBreakdown),
		"crash":     &dist.RankError{Rank: 1, Phase: "send", Err: dist.ErrInjectedCrash},
		"deadlock":  &dist.DeadlockError{Waits: []dist.WaitFor{{Rank: 0, On: 1}}},
		"other":     fmt.Errorf("plain failure"),
	}
	wantCode := map[string]int{
		"breakdown": http.StatusUnprocessableEntity,
		"crash":     http.StatusInternalServerError,
		"deadlock":  http.StatusLoopDetected,
		"other":     http.StatusInternalServerError,
	}
	wantExit := map[string]int{"breakdown": 2, "crash": 3, "deadlock": 3, "other": 1}

	srv := NewServer(Config{
		Workers: 1, QueueDepth: 8,
		Solve: func(spec *Spec, _ *dist.CheckpointStore) (*core.Approximation, error) {
			return nil, fail[failName(spec.Seed)]
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	for i, name := range []string{"breakdown", "crash", "deadlock", "other"} {
		body := fmt.Sprintf(`{"matrix":"M3","method":"qb","tol":0.01,"seed":%d}`, i+1)
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=10s", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != wantCode[name] {
			t.Errorf("%s: POST?wait status %d, want %d", name, resp.StatusCode, wantCode[name])
		}
		if sr.Status != StatusFailed || sr.ExitCode != wantExit[name] {
			t.Errorf("%s: view status=%s exit=%d, want failed/%d", name, sr.Status, sr.ExitCode, wantExit[name])
		}
		// The result endpoint repeats the class code.
		rr, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
		if rr.StatusCode != wantCode[name] {
			t.Errorf("%s: result status %d, want %d", name, rr.StatusCode, wantCode[name])
		}
	}
	// Bad specs are 400, unknown jobs 404.
	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"matrix":"M3"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec status %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/jobs/job-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// failName maps the seed of the test spec to the injected failure.
func failName(seed int64) string {
	return []string{"", "breakdown", "crash", "deadlock", "other"}[seed]
}

// TestServerEndToEndSolve drives a real solve through HTTP and fetches
// a factor both ways.
func TestServerEndToEndSolve(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	body := `{"matrix":"M3","method":"RandQB_EI","tol":1e-2,"block":8,"seed":1}`
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=60s", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Status != StatusDone {
		t.Fatalf("solve failed: code=%d view=%+v", resp.StatusCode, sr)
	}
	if sr.Result == nil || !sr.Result.Converged || sr.Result.Rank <= 0 {
		t.Fatalf("degenerate result: %+v", sr.Result)
	}
	if len(sr.Result.Factors) != 2 || sr.Result.Factors[0] != "Q" {
		t.Fatalf("factors: %v", sr.Result.Factors)
	}
	// JSON factor fetch.
	fr, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/Q")
	if err != nil {
		t.Fatal(err)
	}
	var fj struct {
		Rows int       `json:"rows"`
		Cols int       `json:"cols"`
		Data []float64 `json:"data"`
	}
	json.NewDecoder(fr.Body).Decode(&fj)
	fr.Body.Close()
	if fj.Rows == 0 || fj.Cols != sr.Result.Rank || len(fj.Data) != fj.Rows*fj.Cols {
		t.Fatalf("bad Q payload: %d×%d, %d values", fj.Rows, fj.Cols, len(fj.Data))
	}
	// MatrixMarket factor fetch.
	fr, err = http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/B?format=mm")
	if err != nil {
		t.Fatal(err)
	}
	mm := make([]byte, 64)
	n, _ := fr.Body.Read(mm)
	fr.Body.Close()
	if !strings.HasPrefix(string(mm[:n]), "%%MatrixMarket matrix array real general") {
		t.Fatalf("bad MM factor header: %q", string(mm[:n]))
	}
	// Unknown factor name is a 400.
	fr, _ = http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/Z")
	fr.Body.Close()
	if fr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown factor status %d, want 400", fr.StatusCode)
	}
	// The identical request is a cache hit.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr2 submitResponse
	json.NewDecoder(resp.Body).Decode(&sr2)
	resp.Body.Close()
	if sr2.Outcome != CacheHit || !sr2.Cached || sr2.Status != StatusDone {
		t.Fatalf("resubmission not served from cache: %+v", sr2)
	}
	if sr2.Result.Rank != sr.Result.Rank {
		t.Fatal("cached result differs")
	}
}

// A TSVD job at τ ≥ 1 keeps no singular triplet: the job finishes at
// rank 0 and its empty factors still export, with the empty diagonal S
// as "values": [] both fresh and as a hit on a reopened disk cache.
func TestServerTSVDRankZero(t *testing.T) {
	dir := t.TempDir()
	for _, run := range []string{"fresh", "disk hit"} {
		dc, err := OpenDiskCache(dir, 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{Workers: 1, QueueDepth: 4, Disk: dc})
		ts := httptest.NewServer(srv)
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=60s", "application/json",
			strings.NewReader(`{"matrix":"M1","scale":"small","method":"TSVD","tol":2}`))
		if err != nil {
			t.Fatal(err)
		}
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if sr.Status != StatusDone || sr.Result == nil || sr.Result.Rank != 0 || !sr.Result.Converged {
			t.Fatalf("%s: TSVD at τ = 2: %+v, want done at rank 0 and converged", run, sr.View)
		}
		if sr.Cached != (run == "disk hit") {
			t.Fatalf("%s: cached = %v", run, sr.Cached)
		}
		if len(sr.Result.Factors) != 3 {
			t.Fatalf("%s: TSVD factors %v, want U, S, V", run, sr.Result.Factors)
		}
		for _, name := range sr.Result.Factors {
			for _, q := range []string{"", "?format=mm"} {
				fr, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/" + name + q)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(fr.Body)
				fr.Body.Close()
				if fr.StatusCode != http.StatusOK {
					t.Fatalf("%s: factor %s%s: status %d", run, name, q, fr.StatusCode)
				}
				if q != "" {
					continue
				}
				var doc map[string]json.RawMessage
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Fatalf("%s: factor %s: %v", run, name, err)
				}
				if name == "S" && string(doc["values"]) != "[]" {
					t.Errorf("%s: factor S exports values %s, want []", run, doc["values"])
				}
			}
		}
		ts.Close()
		srv.Drain(context.Background())
	}
}

// TestServerMatrixMarketUpload submits a raw MatrixMarket body with
// query-string knobs.
func TestServerMatrixMarketUpload(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var buf strings.Builder
	a := gen.Circuit(40, 3, 7)
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?method=LU_CRTP&tol=1e-2&k=8&wait=60s",
		"text/plain", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sr submitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if sr.Status != StatusDone || sr.Result == nil || sr.Result.Method != "LU_CRTP" {
		t.Fatalf("upload solve failed: %+v", sr)
	}
	// The L factor round-trips through MatrixMarket coordinate format.
	fr, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID + "/factors/L?format=mm")
	if err != nil {
		t.Fatal(err)
	}
	l, err := sparse.ReadMatrixMarket(fr.Body)
	fr.Body.Close()
	if err != nil {
		t.Fatalf("L factor not parseable MatrixMarket: %v", err)
	}
	if l.Rows != 40 {
		t.Fatalf("L has %d rows, want 40", l.Rows)
	}
	// A malformed upload must 400 (not panic the daemon).
	resp, _ = http.Post(ts.URL+"/v1/jobs?method=LU_CRTP&tol=1e-2&wait=10s",
		"text/plain", strings.NewReader("%%MatrixMarket matrix coordinate real general\n-3 x\n"))
	var sr2 submitResponse
	json.NewDecoder(resp.Body).Decode(&sr2)
	resp.Body.Close()
	if sr2.Status != StatusFailed {
		t.Fatalf("malformed upload: status %s, want failed", sr2.Status)
	}
	if !strings.Contains(sr2.Error, "line") {
		t.Fatalf("parse error lacks a line number: %q", sr2.Error)
	}
}

// TestServeCheckpointResumeAcrossRestart simulates the daemon-restart
// story: daemon 1 runs a checkpointed distributed job that dies
// mid-run (injected rank crash); a second daemon sharing the
// ResumeRegistry resumes the resubmitted request from the retained
// snapshot and produces the same result as an uninterrupted run.
func TestServeCheckpointResumeAcrossRestart(t *testing.T) {
	spec := func() *Spec {
		s := &Spec{Generator: "M3", Method: "RandQB_EI", Tol: 1e-6, BlockSize: 4,
			Seed: 7, Procs: 2, CheckpointEvery: 1}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Uninterrupted reference.
	want, err := DefaultSolve(spec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iters < 3 {
		t.Fatalf("test needs a multi-iteration run, got %d", want.Iters)
	}

	registry := NewResumeRegistry()
	crashAt := want.VirtualTime / 2
	faultySolve := func(s *Spec, store *dist.CheckpointStore) (*core.Approximation, error) {
		a, err := s.Matrix()
		if err != nil {
			return nil, err
		}
		opts := s.CoreOptions()
		opts.CheckpointEvery = s.CheckpointEvery
		opts.CheckpointStore = store
		cfg := dist.DefaultConfig()
		cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 1, At: crashAt}}}
		opts.DistConfig = &cfg
		return core.Approximate(a, opts)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Daemon 1: the job crashes; the registry retains its snapshots.
	s1 := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4, Resume: registry, Solve: faultySolve})
	j1, _, err := s1.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	j1.Wait(ctx)
	if j1.Status() != StatusFailed {
		t.Fatalf("faulted job status %s, want failed", j1.Status())
	}
	if registry.Len() != 1 {
		t.Fatalf("registry retained %d stores, want 1", registry.Len())
	}
	if _, _, ok := registry.Acquire(spec().Key()).Latest(2); !ok {
		t.Fatal("no complete snapshot survived the crash")
	}
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// Daemon 2 ("after restart"): same registry, healthy solver.
	s2 := NewScheduler(SchedulerConfig{Workers: 1, QueueDepth: 4, Resume: registry})
	j2, _, err := s2.Submit(spec())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Wait(ctx); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	got, _ := j2.Result()
	if got.Rank != want.Rank || got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("resume diverged: rank %d/%d iters %d/%d", got.Rank, want.Rank, got.Iters, want.Iters)
	}
	for i := range want.QB.Q.Data {
		if got.QB.Q.Data[i] != want.QB.Q.Data[i] {
			t.Fatalf("Q element %d differs after resumed run", i)
		}
	}
	if registry.Len() != 0 {
		t.Fatalf("registry still holds %d stores after success", registry.Len())
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzAndDraining covers the operational endpoints.
func TestHealthzAndDraining(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	for _, metric := range []string{
		"lowrankd_queue_depth", "lowrankd_workers", "lowrankd_cache_hits_total",
		"lowrankd_cache_misses_total", "lowrankd_jobs_total", "lowrankd_gomaxprocs",
	} {
		if !strings.Contains(sb.String(), metric) {
			t.Errorf("metrics missing %s", metric)
		}
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"matrix":"M3","method":"qb","tol":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit %d, want 503", resp.StatusCode)
	}
}

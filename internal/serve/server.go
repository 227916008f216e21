package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Config sizes a Server. Zero values get the SchedulerConfig defaults
// and a 256 MiB cache.
type Config struct {
	Workers    int
	QueueDepth int
	CacheBytes int64         // result-cache byte budget (<0 disables)
	Deadline   time.Duration // default per-job deadline (0 = none)
	Solve      SolveFunc     // nil = DefaultSolve
	Resume     *ResumeRegistry
	Metrics    *Metrics

	// Disk adds the persistent cache tier (nil = memory only): solved
	// factors are written to the cache directory and admissions that
	// miss the memory tier are served from it, so a restarted daemon
	// comes back warm.
	Disk *DiskCache
	// PeerFill, when set, is consulted by workers before solving a
	// fresh key locally (peer cache fill across a sharded fleet; see
	// internal/fleet).
	PeerFill PeerFillFunc
	// Replicate, when set, receives every fresh solve so the fleet
	// layer can push the result frame to the key's replica owners
	// (owner-set replication; see internal/fleet).
	Replicate ReplicateFunc

	// MaxBodyBytes bounds uploaded request bodies (0 = 64 MiB).
	MaxBodyBytes int64
}

// retryAfter is the Retry-After hint, in seconds, on 429 responses.
const retryAfter = "1"

// Server wires the scheduler, cache and metrics behind the HTTP API:
//
//	POST   /v1/jobs                submit (JSON spec or MatrixMarket body)
//	POST   /v1/batch               submit many specs at once; small ones
//	                               solve as one kernel-pool submission
//	GET    /v1/jobs/{id}           status (?wait=dur blocks)
//	DELETE /v1/jobs/{id}           cancel a queued job
//	GET    /v1/jobs/{id}/result    result summary (solver errors get
//	                               their class-specific status code)
//	GET    /v1/jobs/{id}/factors/{name}  factor as JSON or MatrixMarket
//	GET    /v1/cache/{key}         framed factors by content key (peer
//	                               cache fill; 404 on miss)
//	PUT    /v1/cache/{key}         install a replicated factor frame
//	                               (owner-set replication; 204 on accept)
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                Prometheus text format
type Server struct {
	sched   *Scheduler
	cache   *Cache
	disk    *DiskCache
	resume  *ResumeRegistry
	metrics *Metrics
	mux     *http.ServeMux

	maxBody int64
}

// NewServer builds the server and starts its scheduler workers.
func NewServer(cfg Config) *Server {
	var cache *Cache
	if cfg.CacheBytes >= 0 {
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = 256 << 20
		}
		cache = NewCache(budget)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	if cfg.Resume == nil {
		cfg.Resume = NewResumeRegistry()
	}
	s := &Server{
		cache:   cache,
		disk:    cfg.Disk,
		resume:  cfg.Resume,
		metrics: cfg.Metrics,
		maxBody: cfg.MaxBodyBytes,
	}
	if s.maxBody <= 0 {
		s.maxBody = 64 << 20
	}
	s.sched = NewScheduler(SchedulerConfig{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Deadline:   cfg.Deadline,
		Solve:      cfg.Solve,
		Cache:      cache,
		Disk:       cfg.Disk,
		PeerFill:   cfg.PeerFill,
		Replicate:  cfg.Replicate,
		Resume:     cfg.Resume,
		Metrics:    cfg.Metrics,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/factors/{name}", s.handleFactor)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheFetch)
	s.mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Drain stops admission and completes outstanding work (SIGTERM path).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// ServeHTTP implements http.Handler with response-code accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.metrics.HTTPRequests.IncInt(rec.code)
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// submitResponse is the POST /v1/jobs payload: the job view plus how
// admission satisfied the request.
type submitResponse struct {
	View
	Outcome Outcome `json:"outcome"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := s.readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := ParseSubmitBody(r.Header.Get("Content-Type"), body, r.URL.Query())
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, outcome, err := s.sched.Submit(spec)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	awaitJobs(r.Context(), wait, job)
	code := http.StatusAccepted
	v := job.view()
	if v.Status.Terminal() {
		code = terminalCode(v)
	}
	writeJSON(w, code, submitResponse{View: v, Outcome: outcome})
}

// maxBatchJobs bounds the member count of one POST /v1/batch request.
const maxBatchJobs = 256

// batchRequest is the POST /v1/batch payload.
type batchRequest struct {
	Jobs []*Spec `json:"jobs"`
}

// batchResponse mirrors the request: one submitResponse per member, in
// order.
type batchResponse struct {
	Jobs []submitResponse `json:"jobs"`
}

// handleBatch admits many specs in one request. Small non-distributed
// members are executed by the scheduler as one kernel-pool submission
// (see Scheduler.SubmitBatch); admission is all-or-nothing, so a full
// queue rejects the whole batch with 429 and a draining scheduler with
// 503. ?wait=dur blocks until every member is terminal or the duration
// expires.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := s.readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad batch request: %v", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: batch needs at least one job"))
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: batch of %d jobs exceeds the %d-job limit", len(req.Jobs), maxBatchJobs))
		return
	}
	for i, spec := range req.Jobs {
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: job %d: %w", i, err))
			return
		}
	}
	jobs, outcomes, err := s.sched.SubmitBatch(req.Jobs)
	if err != nil {
		s.writeAdmitError(w, err)
		return
	}
	awaitJobs(r.Context(), wait, jobs...)
	resp := batchResponse{Jobs: make([]submitResponse, len(jobs))}
	for i, job := range jobs {
		resp.Jobs[i] = submitResponse{View: job.view(), Outcome: outcomes[i]}
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// writeAdmitError answers a rejected admission: 429 with a Retry-After
// hint for a full queue, 503 while draining, 500 otherwise.
func (s *Server) writeAdmitError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch err {
	case ErrQueueFull:
		w.Header().Set("Retry-After", retryAfter)
		code = http.StatusTooManyRequests
	case ErrDraining:
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, err)
}

// parseWait reads the ?wait=dur query parameter (0 when absent). The
// submit handlers call it before admission, so a malformed value admits
// nothing.
func parseWait(r *http.Request) (time.Duration, error) {
	wait := r.URL.Query().Get("wait")
	if wait == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(wait)
	if err != nil {
		return 0, fmt.Errorf("serve: bad wait duration %q: %v", wait, err)
	}
	return d, nil
}

// awaitJobs blocks until every job is terminal or d has passed since
// the first wait began.
func awaitJobs(ctx context.Context, d time.Duration, jobs ...*Job) {
	if d <= 0 {
		return
	}
	var deadline context.Context
	for _, j := range jobs {
		if j.Status().Terminal() {
			continue
		}
		if deadline == nil {
			var cancel context.CancelFunc
			deadline, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		j.Wait(deadline)
	}
}

// readBody reads a request body of at most maxBody bytes.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("serve: reading body: %v", err)
	}
	if int64(len(body)) > s.maxBody {
		return nil, fmt.Errorf("serve: request body exceeds %d bytes", s.maxBody)
	}
	return body, nil
}

// ParseSubmitBody interprets a POST /v1/jobs payload — an
// application/json Spec, or a raw MatrixMarket body with the solver
// knobs in the query string — without validating it. Exported for the
// fleet gateway, which must compute a spec's content key to pick the
// owning shard before forwarding the identical request.
func ParseSubmitBody(contentType string, body []byte, q url.Values) (*Spec, error) {
	if strings.HasPrefix(contentType, "application/json") {
		spec := &Spec{}
		if err := json.Unmarshal(body, spec); err != nil {
			return nil, fmt.Errorf("serve: bad JSON spec: %v", err)
		}
		return spec, nil
	}
	// MatrixMarket upload: knobs from the query string.
	spec := &Spec{
		MatrixMarket: string(body),
		Method:       q.Get("method"),
		Sketch:       q.Get("sketch"),
		Scale:        q.Get("scale"),
	}
	if spec.Method == "" {
		spec.Method = "LU_CRTP"
	}
	var perr error
	getF := func(name string, dst *float64) {
		if v := q.Get(name); v != "" && perr == nil {
			*dst, perr = strconv.ParseFloat(v, 64)
			if perr != nil {
				perr = fmt.Errorf("serve: bad %s %q: %v", name, v, perr)
			}
		}
	}
	getI := func(name string, dst *int) {
		if v := q.Get(name); v != "" && perr == nil {
			*dst, perr = strconv.Atoi(v)
			if perr != nil {
				perr = fmt.Errorf("serve: bad %s %q: %v", name, v, perr)
			}
		}
	}
	getF("tol", &spec.Tol)
	getI("k", &spec.BlockSize)
	getI("power", &spec.Power)
	getI("maxrank", &spec.MaxRank)
	getI("sketchnnz", &spec.SketchNNZ)
	getI("procs", &spec.Procs)
	getI("checkpoint_every", &spec.CheckpointEvery)
	if v := q.Get("seed"); v != "" && perr == nil {
		spec.Seed, perr = strconv.ParseInt(v, 10, 64)
		if perr != nil {
			perr = fmt.Errorf("serve: bad seed %q: %v", v, perr)
		}
	}
	if v := q.Get("deadline_ms"); v != "" && perr == nil {
		spec.DeadlineMS, perr = strconv.ParseInt(v, 10, 64)
		if perr != nil {
			perr = fmt.Errorf("serve: bad deadline_ms %q: %v", v, perr)
		}
	}
	if perr != nil {
		return nil, perr
	}
	return spec, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	wait, err := parseWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	awaitJobs(r.Context(), wait, job)
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.sched.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	if !s.sched.Cancel(id) {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s is %s; only queued jobs can be canceled", id, job.Status()))
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	v := job.view()
	if !v.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s is still %s", job.ID, v.Status))
		return
	}
	writeJSON(w, terminalCode(v), v)
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	ap, err := job.Result()
	if ap == nil {
		if err != nil {
			writeError(w, failureCode(err), err)
			return
		}
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s is still %s", job.ID, job.Status()))
		return
	}
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if err := writeFactor(w, ap, name, format); err != nil {
		writeError(w, http.StatusBadRequest, err)
	}
}

// handleCacheFetch serves GET /v1/cache/{key}: the framed factors for a
// content-addressed key, memory tier first, then disk. This is the peer
// cache fill endpoint — a non-owning shard asks the key's ring owner
// here before solving locally. It reads caches only (never schedules
// work), so it stays cheap and safe to call even when the owner's queue
// is full or draining.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !isCacheKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed cache key %q", key))
		return
	}
	if ap, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/octet-stream")
		EncodeApproximation(w, ap)
		return
	}
	if frame, ok := s.disk.ReadFrame(key); ok {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(frame)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cached result for key %s", key))
}

// handleCachePut installs a replicated factor frame pushed by an
// owner-set peer. The frame is fully decoded before anything is
// stored, so a truncated or corrupt push can never poison a tier, and
// because keys are content-addressed the write is idempotent: the
// bytes under a key are the same no matter which shard produced them.
// Accepted frames land in both the memory cache and the disk tier (raw
// bytes, no re-encode) so the replica survives a restart — that
// durability is the availability point of replication.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !isCacheKey(key) {
		s.metrics.ReplicaStoreRejects.Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed cache key %q", key))
		return
	}
	frame, err := s.readBody(r)
	if err != nil {
		s.metrics.ReplicaStoreRejects.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ap, err := DecodeApproximation(bytes.NewReader(frame))
	if err != nil {
		s.metrics.ReplicaStoreRejects.Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad frame: %v", err))
		return
	}
	s.cache.Put(key, ap)
	s.disk.PutFrame(key, frame)
	s.metrics.ReplicaStores.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.sched.QueueDepth()
	g := Gauges{
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Workers:       s.sched.Workers(),
		Inflight:      s.sched.Inflight(),
		Draining:      s.sched.Draining(),
		ResumeStores:  s.resume.Len(),
	}
	g.CacheEntries, g.CacheBytes, g.CacheBudget, g.CacheEvictions = s.cache.Stats()
	g.Disk = s.disk.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteProm(w, g) // a failed write means the scraper hung up
}

// terminalCode maps a terminal job view to its HTTP status: success
// and the admission-level terminal states are 200; solver failures get
// the class code (see failureCode).
func terminalCode(v View) int {
	switch v.Status {
	case StatusDone, StatusCanceled, StatusExpired:
		return http.StatusOK
	}
	switch v.ErrorClass {
	case core.FailureBreakdown.String():
		return http.StatusUnprocessableEntity
	case core.FailureDeadlock.String():
		return http.StatusLoopDetected
	}
	return http.StatusInternalServerError
}

// failureCode maps a solve error to the class-specific status code,
// mirroring cmd/lowrank's exit codes: breakdown (exit 2) → 422,
// rank crash (exit 3) → 500, deadlock (exit 3) → 508.
func failureCode(err error) int {
	switch core.ClassifyFailure(err) {
	case core.FailureBreakdown:
		return http.StatusUnprocessableEntity
	case core.FailureDeadlock:
		return http.StatusLoopDetected
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	payload := map[string]interface{}{"error": err.Error()}
	if class := core.ClassifyFailure(err); class != core.FailureOther && class != core.FailureNone {
		payload["error_class"] = class.String()
		payload["exit_code"] = class.ExitCode()
	}
	writeJSON(w, code, payload)
}

// writeFactor serializes one factor of a completed approximation as
// JSON ({"rows","cols","data"} row-major, {"values"} for the
// singular-value vector, {"perm"} for a permutation's index vector) or
// MatrixMarket (coordinate for the sparse L/U and C/R factors and for a
// permutation matrix as it enters the product, dense array format
// otherwise). Â is the product of the listed factors in order, with V
// entering transposed.
func writeFactor(w http.ResponseWriter, ap *core.Approximation, name, format string) error {
	if format != "json" && format != "mm" {
		return fmt.Errorf("serve: unknown factor format %q (want json or mm)", format)
	}
	var f core.Factor
	var buf [core.MaxFactors]core.Factor
	for _, g := range ap.Factors(buf[:0]) {
		if g.Name == name {
			f = g
		}
	}
	if f.Name == "" {
		return fmt.Errorf("serve: method %s has no factor %q (available: %v)",
			ap.Method, name, factorNames(ap))
	}
	d := f.Dense
	switch {
	case f.Perm != nil && format == "json":
		writeJSON(w, http.StatusOK, map[string]interface{}{"name": name, "perm": f.Perm})
		return nil
	case f.Perm != nil:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		return permMatrix(f).WriteMatrixMarket(w)
	case f.Sparse != nil && format == "mm":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		return f.Sparse.WriteMatrixMarket(w)
	case f.Sparse != nil:
		d = f.Sparse.ToDense()
	case f.Dense == nil && format == "json":
		// A rank-0 diagonal is nil (gob decodes an empty slice as nil),
		// but it exports as [] like the empty dense factors beside it.
		vals := f.Values
		if vals == nil {
			vals = []float64{}
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"name": name, "values": vals})
		return nil
	case f.Dense == nil:
		// A vector is an n×1 array in MatrixMarket.
		d = &mat.Dense{Rows: len(f.Values), Cols: 1, Stride: 1, Data: f.Values}
	}
	if format == "mm" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Dense array format is column-major per the MatrixMarket spec.
		fmt.Fprintf(w, "%%%%MatrixMarket matrix array real general\n%d %d\n", d.Rows, d.Cols)
		for j := 0; j < d.Cols; j++ {
			for i := 0; i < d.Rows; i++ {
				fmt.Fprintf(w, "%.17g\n", d.At(i, j))
			}
		}
		return nil
	}
	data := make([]float64, 0, d.Rows*d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			data = append(data, d.At(i, j))
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"name": name, "rows": d.Rows, "cols": d.Cols, "data": data,
	})
	return nil
}

// permMatrix is a permutation factor as it enters the product: P with
// P[i][Perm[i]] = 1, or its transpose when the factor is transposed.
func permMatrix(f core.Factor) *sparse.CSR {
	n := len(f.Perm)
	p := sparse.NewCSR(n, n)
	p.ColIdx, p.Val = make([]int, n), make([]float64, n)
	for i, j := range f.Perm {
		p.RowPtr[i+1], p.Val[i] = i+1, 1
		if f.Transposed {
			p.ColIdx[j] = i
		} else {
			p.ColIdx[i] = j
		}
	}
	return p
}

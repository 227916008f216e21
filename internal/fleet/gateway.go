package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"sparselr/internal/serve"
)

// maxJobRoutes bounds the job-id → backend map; the oldest routes are
// forgotten first (matching the shards' own bounded job history).
const maxJobRoutes = 65536

// GatewayConfig sizes a Gateway. Zero values get defaults.
type GatewayConfig struct {
	// Backends are the lowrankd base URLs (e.g. http://host:8080).
	Backends []string
	// Replicas is the virtual-node count per backend (0 = DefaultReplicas).
	Replicas int
	// Health tunes the prober; its OnChange is chained after the
	// gateway's own ring-change accounting.
	Health HealthConfig
	// Metrics receives gateway counters (nil = a private set).
	Metrics *Metrics
	// MaxBodyBytes bounds buffered request bodies (0 = 64 MiB).
	MaxBodyBytes int64
	// Client performs the forwards (nil = &http.Client{} — per-request
	// deadlines come from the inbound request context).
	Client *http.Client
	// RetryBudget is how many extra backoff passes over a key's
	// candidate backends a request may spend after every candidate
	// dial-failed, so a fleet-wide blip (all replicas mid-restart)
	// rides out instead of surfacing as 502. Each backend sees at most
	// RetryBudget+1 attempts per request. 0 = 2; negative disables
	// retry passes (PR 7 single-walk behavior).
	RetryBudget int
	// RetryBase is the first inter-pass backoff delay; it doubles per
	// pass with ±50% jitter, capped at 1s. 0 = 25ms.
	RetryBase time.Duration
	// Logf receives routing and health lines (nil = silent).
	Logf func(format string, args ...interface{})
}

// maxRetryBackoff caps the per-pass backoff delay.
const maxRetryBackoff = time.Second

// Gateway is the fleet front door: it consistent-hashes each
// submission's content key to its owning shard, forwards the request
// verbatim (preserving ?wait and the submit/batch semantics), and
// remembers which backend got each job id so status, result, factor
// and cancel calls reach the right shard.
//
// Failure handling, in order of preference:
//   - dial error → report to the health checker (counts toward
//     eviction), retry the next node in the key's ring sequence;
//   - 429/503 from the owner → spill over to the next distinct node,
//     which typically peer-fills the factors from the owner's cache
//     (cache reads bypass the job queue) instead of re-solving;
//   - every candidate dial-failed → jittered exponential backoff and
//     another pass over the (refreshed) candidates, up to RetryBudget
//     passes;
//   - budget exhausted → 502, or the last backpressure response is
//     relayed so the client sees the shard's Retry-After.
//
// Identical submissions are not coalesced here: they route to the same
// shard, whose singleflight joins them onto one job.
type Gateway struct {
	ring    *Ring
	health  *Health
	metrics *Metrics
	mux     *http.ServeMux
	client  *http.Client
	maxBody int64
	logf    func(string, ...interface{})

	// fullRing hashes over every configured backend, ignoring health
	// evictions — the invariant placement. A submit answered from
	// cache by a backend that is not the key's full-ring primary is a
	// replica read: the owner-set copy (or a spillover peer fill)
	// absorbed a primary failure.
	fullRing *Ring

	retryBudget int
	retryBase   time.Duration

	mu         sync.Mutex
	routes     map[string]string // job id → backend
	routeOrder []string
}

// NewGateway builds the gateway and its health checker. Call Start to
// begin probing (tests may drive probes manually).
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one backend")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	g := &Gateway{
		ring:        NewRing(cfg.Replicas),
		fullRing:    NewRing(cfg.Replicas),
		metrics:     cfg.Metrics,
		client:      cfg.Client,
		maxBody:     cfg.MaxBodyBytes,
		retryBudget: cfg.RetryBudget,
		retryBase:   cfg.RetryBase,
		logf:        cfg.Logf,
	}
	for _, b := range cfg.Backends {
		g.fullRing.Add(b)
	}
	if g.client == nil {
		g.client = &http.Client{}
	}
	if g.maxBody <= 0 {
		g.maxBody = 64 << 20
	}
	if g.retryBudget == 0 {
		g.retryBudget = 2
	} else if g.retryBudget < 0 {
		g.retryBudget = 0
	}
	if g.retryBase <= 0 {
		g.retryBase = 25 * time.Millisecond
	}
	if g.logf == nil {
		g.logf = func(string, ...interface{}) {}
	}
	hcfg := cfg.Health
	if hcfg.Logf == nil {
		hcfg.Logf = g.logf
	}
	chained := hcfg.OnChange
	hcfg.OnChange = func(backend string, healthy bool) {
		g.metrics.RingChange(healthy)
		if chained != nil {
			chained(backend, healthy)
		}
	}
	g.health = NewHealth(g.ring, cfg.Backends, hcfg)
	g.routes = map[string]string{}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/jobs", g.handleSubmit)
	g.mux.HandleFunc("POST /v1/batch", g.handleBatch)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobProxy)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobProxy)
	g.mux.HandleFunc("GET /v1/jobs/{id}/result", g.handleJobProxy)
	g.mux.HandleFunc("GET /v1/jobs/{id}/factors/{name}", g.handleJobProxy)
	g.mux.HandleFunc("GET /v1/cache/{key}", g.handleCacheProxy)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Start launches the health probe loop; Stop ends it.
func (g *Gateway) Start() { g.health.Start() }
func (g *Gateway) Stop()  { g.health.Stop() }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// ---- routing table ----

// rememberRoute indexes a job id by owning backend, bounded.
func (g *Gateway) rememberRoute(id, backend string) {
	if id == "" {
		return
	}
	g.mu.Lock()
	if _, ok := g.routes[id]; !ok {
		g.routeOrder = append(g.routeOrder, id)
		for len(g.routeOrder) > maxJobRoutes {
			delete(g.routes, g.routeOrder[0])
			g.routeOrder = g.routeOrder[1:]
		}
	}
	g.routes[id] = backend
	g.mu.Unlock()
}

func (g *Gateway) routeFor(id string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.routes[id]
	return b, ok
}

func (g *Gateway) routeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.routes)
}

// ---- forwarding ----

// forwardResult is one backend's reply, buffered for relay.
type forwardResult struct {
	backend string
	code    int
	header  http.Header
	body    []byte
}

// forwardOnce proxies (method, path+query, body) to a single backend.
func (g *Gateway) forwardOnce(r *http.Request, backend string, body []byte) (*forwardResult, error) {
	url := backend + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.metrics.Errors.Inc(backend)
		g.health.ReportFailure(backend, err)
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, g.maxBody+1))
	if err != nil {
		g.metrics.Errors.Inc(backend)
		g.health.ReportFailure(backend, err)
		return nil, err
	}
	g.metrics.Forwarded(backend, time.Since(start))
	return &forwardResult{backend: backend, code: resp.StatusCode, header: resp.Header, body: respBody}, nil
}

// backpressure reports whether a status code means "try another shard".
func backpressure(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// forwardSequence walks candidates: dial errors reroute to the next
// node, backpressure spills over; the first real answer wins. The last
// backpressure reply is relayed if every candidate pushes back. When
// every candidate dial-fails — a fleet-wide blip, not one sick shard —
// the gateway spends its retry budget: jittered exponential backoff,
// refresh the candidate list (evictions and readmissions land between
// passes), and walk again. refresh may be nil (retry the same list).
func (g *Gateway) forwardSequence(r *http.Request, candidates []string, body []byte, refresh func() []string) (*forwardResult, error) {
	backoff := g.retryBase
	for pass := 0; ; pass++ {
		var lastPressure *forwardResult
		for i, backend := range candidates {
			res, err := g.forwardOnce(r, backend, body)
			if err != nil {
				g.logf("fleet: forward to %s failed: %v", backend, err)
				if i < len(candidates)-1 {
					g.metrics.Reroutes.Inc()
				}
				continue
			}
			if backpressure(res.code) && i < len(candidates)-1 {
				g.metrics.Spillover.Inc()
				lastPressure = res
				continue
			}
			return res, nil
		}
		if lastPressure != nil {
			return lastPressure, nil
		}
		if pass >= g.retryBudget {
			break
		}
		g.metrics.RetryPasses.Inc()
		select {
		case <-time.After(jitteredBackoff(backoff)):
		case <-r.Context().Done():
			g.metrics.Unroutable.Inc()
			return nil, fmt.Errorf("fleet: canceled during retry backoff: %w", r.Context().Err())
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
		if refresh != nil {
			if c := refresh(); len(c) > 0 {
				candidates = c
			}
		}
	}
	if g.retryBudget > 0 {
		g.metrics.RetryExhausted.Inc()
	}
	g.metrics.Unroutable.Inc()
	return nil, fmt.Errorf("fleet: no reachable backend (tried %d candidates over %d passes)", len(candidates), g.retryBudget+1)
}

// jitteredBackoff spreads d uniformly over [d/2, 3d/2) so concurrent
// retriers don't re-dial a recovering fleet in lockstep.
func jitteredBackoff(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// relay writes a buffered backend reply to the client.
func relay(w http.ResponseWriter, res *forwardResult) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.code)
	w.Write(res.body)
}

// ---- handlers ----

func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: reading body: %v", err))
		return nil, false
	}
	if int64(len(body)) > g.maxBody {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: request body exceeds %d bytes", g.maxBody))
		return nil, false
	}
	return body, true
}

// handleSubmit routes one job to its content key's ring owner.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	spec, err := serve.ParseSubmitBody(r.Header.Get("Content-Type"), body, r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := g.submitOnce(r, spec.Key(), body)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, res)
}

// submitOnce performs the actual forward walk for one submission and
// does the accounting on its reply (route memory, replica-read
// detection).
func (g *Gateway) submitOnce(r *http.Request, key string, body []byte) (*forwardResult, error) {
	refresh := func() []string { return g.ring.OwnerSequence(key, 0) }
	candidates := refresh()
	if len(candidates) == 0 {
		g.metrics.Unroutable.Inc()
		return nil, fmt.Errorf("fleet: every backend is down")
	}
	res, err := g.forwardSequence(r, candidates, body, refresh)
	if err != nil {
		return nil, err
	}
	if res.code < 300 {
		var sub struct {
			ID     string `json:"id"`
			Cached bool   `json:"cached"`
		}
		if json.Unmarshal(res.body, &sub) == nil {
			g.rememberRoute(sub.ID, res.backend)
			if primary, ok := g.fullRing.Owner(key); ok && primary != res.backend && sub.Cached {
				// Answered from cache by a non-primary: the owner-set
				// replica (or a peer fill) covered for the primary.
				g.metrics.ReplicaReads.Inc()
			}
		}
	}
	return res, nil
}

// batchEnvelope mirrors serve's batch request/response shapes closely
// enough to split and merge them without importing the unexported
// types.
type batchEnvelope struct {
	Jobs []json.RawMessage `json:"jobs"`
}

// handleBatch splits a batch by ring owner, forwards one sub-batch per
// shard, and merges the replies back into request order. Admission
// stays all-or-nothing per shard (each lowrankd admits or rejects its
// sub-batch atomically), not fleet-wide: on any shard-level rejection
// the whole request reports the most actionable failure code (429 over
// 503 over 502) and the client retries, with already-admitted
// sub-batches deduplicated by the shards' own caches on resubmission.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req batchEnvelope
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: bad batch request: %v", err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: batch needs at least one job"))
		return
	}
	// Validate every member and compute its owner.
	type member struct {
		idx int
		raw json.RawMessage
	}
	groups := map[string][]member{}
	for i, raw := range req.Jobs {
		spec := &serve.Spec{}
		if err := json.Unmarshal(raw, spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: job %d: %v", i, err))
			return
		}
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: job %d: %w", i, err))
			return
		}
		owner, ok := g.ring.Owner(spec.Key())
		if !ok {
			g.metrics.Unroutable.Inc()
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: every backend is down"))
			return
		}
		groups[owner] = append(groups[owner], member{i, raw})
	}

	// Forward the per-shard sub-batches concurrently; each walks its
	// own failover sequence starting at the owner.
	type shardReply struct {
		owner   string
		members []member
		res     *forwardResult
		err     error
	}
	owners := make([]string, 0, len(groups))
	for o := range groups {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	replies := make([]shardReply, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func(i int, owner string) {
			defer wg.Done()
			ms := groups[owner]
			sub := batchEnvelope{Jobs: make([]json.RawMessage, len(ms))}
			for j, m := range ms {
				sub.Jobs[j] = m.raw
			}
			subBody, _ := json.Marshal(sub)
			res, err := g.forwardSequence(r, g.failoverFrom(owner), subBody, func() []string { return g.failoverFrom(owner) })
			replies[i] = shardReply{owner, ms, res, err}
		}(i, owner)
	}
	wg.Wait()

	// Merge. Any shard-level failure fails the whole batch.
	merged := make([]json.RawMessage, len(req.Jobs))
	worst := 0
	var worstReply *forwardResult
	for _, rep := range replies {
		if rep.err != nil {
			writeError(w, http.StatusBadGateway, rep.err)
			return
		}
		if rep.res.code >= 300 {
			if sev := codeSeverity(rep.res.code); sev > worst {
				worst, worstReply = sev, rep.res
			}
			continue
		}
		var out struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.Unmarshal(rep.res.body, &out); err != nil || len(out.Jobs) != len(rep.members) {
			writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: malformed batch reply from %s", rep.res.backend))
			return
		}
		for j, m := range rep.members {
			merged[m.idx] = out.Jobs[j]
			var sub struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(out.Jobs[j], &sub) == nil {
				g.rememberRoute(sub.ID, rep.res.backend)
			}
		}
	}
	if worstReply != nil {
		relay(w, worstReply)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]interface{}{"jobs": merged})
}

// codeSeverity ranks shard failure codes: clients should see 429
// (back off and retry) over 503 (draining) over anything else.
func codeSeverity(code int) int {
	switch code {
	case http.StatusTooManyRequests:
		return 3
	case http.StatusServiceUnavailable:
		return 2
	}
	return 1
}

// failoverFrom returns ring members starting at owner, wrapping in
// sorted order — the failover walk for a shard-level sub-batch.
func (g *Gateway) failoverFrom(owner string) []string {
	members := g.ring.Members()
	for i, m := range members {
		if m == owner {
			return append(members[i:], members[:i]...)
		}
	}
	return append([]string{owner}, members...)
}

// handleJobProxy forwards id-addressed calls (status, cancel, result,
// factors) to the backend that admitted the job. Unknown ids 404
// without touching any backend.
func (g *Gateway) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	backend, ok := g.routeFor(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("fleet: unknown job id %q", id))
		return
	}
	res, err := g.forwardOnce(r, backend, nil)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("fleet: backend %s unreachable: %v", backend, err))
		return
	}
	relay(w, res)
}

// handleCacheProxy forwards a cache fetch along the key's ring
// sequence, so operators can read any shard's factors through the
// gateway.
func (g *Gateway) handleCacheProxy(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	refresh := func() []string { return g.ring.OwnerSequence(key, 0) }
	candidates := refresh()
	if len(candidates) == 0 {
		g.metrics.Unroutable.Inc()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: every backend is down"))
		return
	}
	res, err := g.forwardSequence(r, candidates, nil, refresh)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	relay(w, res)
}

// handleHealthz answers 200 while at least one backend is routable.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := g.health.Snapshot()
	code := http.StatusOK
	if g.ring.Len() == 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]interface{}{
		"ring_size": g.ring.Len(),
		"backends":  snap,
	})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = g.metrics.WriteProm(w, Gauges{ // a failed write means the scraper hung up
		RingSize: g.ring.Len(),
		Backends: g.health.Snapshot(),
		Routes:   g.routeCount(),
	})
}

// ---- small response helpers ----

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

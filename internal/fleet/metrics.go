package fleet

import (
	"io"
	"time"

	"sparselr/internal/prom"
)

// Metrics is the gateway's metric set, rendered by WriteProm. Callers
// record on the exported handles directly; the HELP text each is
// registered with in NewMetrics says what it counts. Series are
// prefixed lowrank_gateway_ to keep them distinct from the per-shard
// lowrankd_ series when both are scraped into one store.
type Metrics struct {
	reg prom.Registry

	Errors                             *prom.Vec // by backend
	requests, latencySum, latencyCount *prom.Vec

	Reroutes, Spillover, Unroutable           *prom.Value
	RetryPasses, RetryExhausted, ReplicaReads *prom.Value
	Evictions, Readmissions                   *prom.Value

	ringSize, jobRoutes *prom.Value
	backendHealthy      *prom.Vec
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	m.requests = r.CounterVec("lowrank_gateway_requests_total", "Requests forwarded, by backend.", "backend")
	m.Errors = r.CounterVec("lowrank_gateway_errors_total", "Forwarding failures, by backend.", "backend")
	m.latencySum = r.CounterVec("lowrank_gateway_latency_seconds_sum", "Cumulative forward round-trip seconds, by backend.", "backend")
	m.latencyCount = r.CounterVec("lowrank_gateway_latency_seconds_count", "Forward round-trips measured, by backend.", "backend")
	m.Reroutes = r.Counter("lowrank_gateway_reroutes_total", "Requests retried on the next ring node after a dial failure.")
	m.Spillover = r.Counter("lowrank_gateway_spillover_total", "Requests retried on the next ring node after 429/503 backpressure.")
	m.Evictions = r.Counter("lowrank_gateway_evictions_total", "Backends evicted from the ring.")
	m.Readmissions = r.Counter("lowrank_gateway_readmissions_total", "Backends readmitted to the ring.")
	m.Unroutable = r.Counter("lowrank_gateway_unroutable_total", "Requests failed with every backend down.")
	m.RetryPasses = r.Counter("lowrank_gateway_retry_passes_total", "Backoff passes after every candidate dial-failed.")
	m.RetryExhausted = r.Counter("lowrank_gateway_retry_exhausted_total", "Requests that spent their whole retry budget.")
	m.ReplicaReads = r.Counter("lowrank_gateway_replica_reads_total", "Cached submits answered by a non-primary owner-set member.")
	m.ringSize = r.Gauge("lowrank_gateway_ring_size", "Backends currently in the ring.")
	m.backendHealthy = r.GaugeVec("lowrank_gateway_backend_healthy", "Backend health, by backend (1 = in ring).", "backend")
	m.jobRoutes = r.Gauge("lowrank_gateway_job_routes", "Tracked job-id to backend routes.")
	return m
}

// Forwarded records one proxied request and its round-trip latency.
func (m *Metrics) Forwarded(backend string, d time.Duration) {
	m.requests.Inc(backend)
	m.latencySum.Add(backend, d.Seconds())
	m.latencyCount.Inc(backend)
}

// RingChange records an eviction (healthy=false) or readmission.
func (m *Metrics) RingChange(healthy bool) {
	if healthy {
		m.Readmissions.Inc()
	} else {
		m.Evictions.Inc()
	}
}

// Gauges carries the live values sampled at render time.
type Gauges struct {
	RingSize int
	Backends map[string]bool // backend → healthy
	Routes   int             // tracked job-id routes
}

// WriteProm renders every series, with the gauges sampled in g.
func (m *Metrics) WriteProm(w io.Writer, g Gauges) error {
	m.ringSize.Set(float64(g.RingSize))
	for b, healthy := range g.Backends {
		v := 0.0
		if healthy {
			v = 1
		}
		m.backendHealthy.Set(b, v)
	}
	m.jobRoutes.Set(float64(g.Routes))
	return m.reg.Write(w)
}

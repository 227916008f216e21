package serve

import (
	"io"
	"runtime"
	"time"

	"sparselr/internal/prom"
)

// Metrics is the daemon's operational metric set, rendered by
// WriteProm. Callers record on the exported handles directly; the HELP
// text each is registered with in NewMetrics says what it counts.
// Series that belong to live components (queue depth, cache bytes,
// ...) are sampled at render time from the Gauges passed to WriteProm.
type Metrics struct {
	reg     prom.Registry
	sampled []func(Gauges) // set the series read from Gauges

	CacheHits, SingleflightHits, CacheMisses, DiskCacheHits        *prom.Value
	PeerFillHits, PeerFillMisses, PeerFillReplicaHits              *prom.Value
	ReplicaStores, ReplicaStoreRejects                             *prom.Value
	ReplicationPushes, ReplicationPushFailures, ReplicationDropped *prom.Value
	ReplicationPending                                             *prom.Value
	Batches, QueueRejections, DrainRejections                      *prom.Value
	batchesRun, batchJobs                                          *prom.Value
	replicationLag                                                 *prom.Summary

	Jobs, Solves *prom.Vec // by terminal status, by method
	HTTPRequests *prom.Vec // by status code
	virtual      *prom.Vec
	solveSeconds *prom.Histogram
}

// NewMetrics returns an empty metric set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	r := &m.reg
	sample := func(v *prom.Value, get func(Gauges) float64) {
		m.sampled = append(m.sampled, func(g Gauges) { v.Set(get(g)) })
	}
	sample(r.Gauge("lowrankd_queue_depth", "Jobs waiting in the submission queue."), func(g Gauges) float64 { return float64(g.QueueDepth) })
	sample(r.Gauge("lowrankd_queue_capacity", "Submission queue capacity."), func(g Gauges) float64 { return float64(g.QueueCapacity) })
	sample(r.Gauge("lowrankd_workers", "Configured worker slots."), func(g Gauges) float64 { return float64(g.Workers) })
	sample(r.Gauge("lowrankd_inflight_jobs", "Jobs currently being solved."), func(g Gauges) float64 { return float64(g.Inflight) })
	sample(r.Gauge("lowrankd_draining", "1 while the scheduler is draining."), func(g Gauges) float64 {
		if g.Draining {
			return 1
		}
		return 0
	})
	sample(r.Gauge("lowrankd_gomaxprocs", "Kernel-pool parallelism (GOMAXPROCS)."), func(Gauges) float64 { return float64(runtime.GOMAXPROCS(0)) })

	m.CacheHits = r.Counter("lowrankd_cache_hits_total", "Requests satisfied from the result cache.")
	m.SingleflightHits = r.Counter("lowrankd_singleflight_hits_total", "Requests joined onto an identical in-flight job.")
	m.CacheMisses = r.Counter("lowrankd_cache_misses_total", "Requests admitted for a fresh solve.")
	sample(r.Counter("lowrankd_cache_evictions_total", "Cache entries evicted under the byte budget."), func(g Gauges) float64 { return float64(g.CacheEvictions) })
	sample(r.Gauge("lowrankd_cache_entries", "Resident cache entries."), func(g Gauges) float64 { return float64(g.CacheEntries) })
	sample(r.Gauge("lowrankd_cache_bytes", "Estimated resident cache bytes."), func(g Gauges) float64 { return float64(g.CacheBytes) })
	sample(r.Gauge("lowrankd_cache_budget_bytes", "Cache byte budget."), func(g Gauges) float64 { return float64(g.CacheBudget) })
	m.DiskCacheHits = r.Counter("lowrankd_disk_cache_hits_total", "Admissions served from the on-disk cache tier.")
	sample(r.Gauge("lowrankd_disk_cache_entries", "Resident on-disk cache entries."), func(g Gauges) float64 { return float64(g.Disk.Entries) })
	sample(r.Gauge("lowrankd_disk_cache_bytes", "Resident on-disk cache bytes."), func(g Gauges) float64 { return float64(g.Disk.Bytes) })
	sample(r.Gauge("lowrankd_disk_cache_budget_bytes", "On-disk cache byte budget (0 = tier disabled)."), func(g Gauges) float64 { return float64(g.Disk.Budget) })
	sample(r.Counter("lowrankd_disk_cache_writes_total", "Factor files persisted to the cache directory."), func(g Gauges) float64 { return float64(g.Disk.Writes) })
	sample(r.Counter("lowrankd_disk_cache_evictions_total", "On-disk entries evicted under the byte budget."), func(g Gauges) float64 { return float64(g.Disk.Evictions) })
	sample(r.Counter("lowrankd_disk_cache_corrupt_total", "Corrupt/truncated cache files deleted at boot or read."), func(g Gauges) float64 { return float64(g.Disk.Dropped) })
	m.PeerFillHits = r.Counter("lowrankd_peer_fill_hits_total", "Local solves avoided by fetching factors from the ring owner.")
	m.PeerFillMisses = r.Counter("lowrankd_peer_fill_misses_total", "Peer-fill attempts that fell back to a local solve.")
	m.PeerFillReplicaHits = r.Counter("lowrankd_peer_fill_replica_hits_total", "Peer fills served by a non-primary owner-set member.")
	m.ReplicaStores = r.Counter("lowrankd_replica_stores_total", "Replicated frames accepted over PUT /v1/cache.")
	m.ReplicaStoreRejects = r.Counter("lowrankd_replica_store_rejects_total", "Replicated frames rejected (bad key or frame).")
	m.ReplicationPushes = r.Counter("lowrankd_replication_pushes_total", "Replication PUTs delivered to owner-set peers.")
	m.ReplicationPushFailures = r.Counter("lowrankd_replication_push_failures_total", "Replication PUTs that failed.")
	m.ReplicationDropped = r.Counter("lowrankd_replication_dropped_total", "Solves whose replication was shed (queue full).")
	m.ReplicationPending = r.Gauge("lowrankd_replication_pending", "Solves queued for replication, not yet pushed.")
	m.replicationLag = r.Summary("lowrankd_replication_lag_seconds", "Solve-to-replicated delay.")
	m.Batches = r.Counter("lowrankd_batches_total", "Batch carrier jobs admitted.")
	m.batchesRun = r.Counter("lowrankd_batches_run_total", "Batch carrier jobs executed.")
	m.batchJobs = r.Counter("lowrankd_batch_jobs_total", "Member jobs solved inside a batch.")
	m.QueueRejections = r.Counter("lowrankd_queue_rejections_total", "Submissions rejected with 429 (queue full).")
	m.DrainRejections = r.Counter("lowrankd_drain_rejections_total", "Submissions rejected with 503 (draining).")
	sample(r.Gauge("lowrankd_resume_stores", "Retained checkpoint stores awaiting resume."), func(g Gauges) float64 { return float64(g.ResumeStores) })

	m.Jobs = r.CounterVec("lowrankd_jobs_total", "Jobs by terminal status.", "status")
	for _, s := range []Status{StatusDone, StatusFailed, StatusCanceled, StatusExpired} {
		m.Jobs.Add(string(s), 0)
	}
	m.HTTPRequests = r.CounterVec("lowrankd_http_requests_total", "HTTP responses by status code.", "code")
	m.Solves = r.CounterVec("lowrankd_solves_total", "Fresh solves by algorithm.", "method")
	m.solveSeconds = r.Histogram("lowrankd_solve_seconds", "Solve wall latency by algorithm.", "method", []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10})
	m.virtual = r.CounterVec("lowrankd_dist_virtual_seconds_total", "Modeled runtime of the solves (one-rank and distributed) by algorithm.", "method")
	return m
}

// ReplicationSettled records one queued solve fully pushed (or given
// up on), with the solve-to-replicated lag.
func (m *Metrics) ReplicationSettled(lag time.Duration) {
	m.ReplicationPending.Add(-1)
	m.replicationLag.Observe(lag.Seconds())
}

// BatchExecuted records a worker running n members as one kernel-pool
// submission.
func (m *Metrics) BatchExecuted(n int) {
	m.batchesRun.Inc()
	m.batchJobs.Add(float64(n))
}

// SolveDone records one completed solve (fresh compute, not a cache
// hit) with its wall latency and, for the loop solvers, modeled time.
func (m *Metrics) SolveDone(method string, wall time.Duration, virtualTime float64) {
	m.Solves.Inc(method)
	m.solveSeconds.Observe(method, wall.Seconds())
	if virtualTime > 0 {
		m.virtual.Add(method, virtualTime)
	}
}

// Gauges carries the live values sampled at render time.
type Gauges struct {
	QueueDepth    int
	QueueCapacity int
	Workers       int
	Inflight      int
	Draining      bool

	CacheEntries   int
	CacheBytes     int64
	CacheBudget    int64
	CacheEvictions uint64

	// Disk carries the on-disk tier's counters (zero value when the
	// daemon runs without -cachedir).
	Disk DiskStats

	ResumeStores int
}

// WriteProm renders every series, with the sampled ones read from g,
// in Prometheus text exposition format (version 0.0.4).
func (m *Metrics) WriteProm(w io.Writer, g Gauges) error {
	for _, set := range m.sampled {
		set(g)
	}
	return m.reg.Write(w)
}

package serve

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Metrics is the daemon's operational counter set, rendered in
// Prometheus text exposition format by WriteProm. Gauges that belong
// to live components (queue depth, cache bytes, ...) are sampled at
// render time through the owning Scheduler/Cache, not stored here.
type Metrics struct {
	mu sync.Mutex

	cacheHits    uint64
	singleflight uint64
	cacheMisses  uint64
	rejections   uint64 // queue-full 429s
	drainRejects uint64 // draining 503s

	diskHits       uint64 // admissions served from the disk tier
	peerFillHits   uint64 // solves avoided by fetching from the ring owner
	peerFillMisses uint64 // peer-fill attempts that fell back to a local solve

	peerReplicaHits uint64 // peer fills served by a non-primary owner-set member

	replicaStores       uint64 // replicated frames accepted over PUT /v1/cache
	replicaStoreRejects uint64 // PUT frames rejected (bad key or frame)

	replicaPushes     uint64  // replication PUTs delivered to owner-set peers
	replicaPushFails  uint64  // replication PUTs that failed (peer down, timeout)
	replicaDropped    uint64  // solves whose replication was dropped (queue full)
	replicaPending    int64   // gauge: solves queued for replication, not yet pushed
	replicaLagSeconds float64 // total solve-to-replicated delay
	replicaLagCount   uint64

	batchesEnqueued uint64 // carrier jobs admitted by SubmitBatch
	batchesRun      uint64 // carrier jobs executed by a worker
	batchMembers    uint64 // member jobs solved inside a batch

	jobsTotal map[Status]uint64
	solves    map[string]uint64 // by method
	httpCodes map[int]uint64

	latency map[string]*histogram // solve seconds by method

	virtualSeconds map[string]float64 // modeled dist time by method
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{
		jobsTotal:      map[Status]uint64{},
		solves:         map[string]uint64{},
		httpCodes:      map[int]uint64{},
		latency:        map[string]*histogram{},
		virtualSeconds: map[string]float64{},
	}
}

// solveBuckets are the per-algorithm latency histogram bounds in
// seconds (log-spaced from 1ms to 10s).
var solveBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

type histogram struct {
	counts []uint64 // one per bucket, cumulative semantics applied at render
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	for i, le := range solveBuckets {
		if v <= le {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// CacheHit / SingleflightHit / CacheMiss record request admission
// outcomes: a completed-result reuse, a join onto an in-flight
// identical job, and an admitted fresh solve respectively.
func (m *Metrics) CacheHit()        { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *Metrics) SingleflightHit() { m.mu.Lock(); m.singleflight++; m.mu.Unlock() }
func (m *Metrics) CacheMiss()       { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }

// DiskHit records an admission satisfied from the on-disk cache tier
// (a memory miss whose factors were found in the cache directory).
func (m *Metrics) DiskHit() { m.mu.Lock(); m.diskHits++; m.mu.Unlock() }

// PeerFillHit records a local solve avoided because the key's ring
// owner supplied the factors; PeerFillMiss an attempt that missed (or
// failed) and fell back to solving locally.
func (m *Metrics) PeerFillHit()  { m.mu.Lock(); m.peerFillHits++; m.mu.Unlock() }
func (m *Metrics) PeerFillMiss() { m.mu.Lock(); m.peerFillMisses++; m.mu.Unlock() }

// PeerReplicaHit records a peer fill served by a replica owner after
// the primary missed or was unreachable (counted on top of
// PeerFillHit, which tracks the overall outcome).
func (m *Metrics) PeerReplicaHit() { m.mu.Lock(); m.peerReplicaHits++; m.mu.Unlock() }

// ReplicaStore records an inbound replicated frame on PUT /v1/cache:
// accepted and installed when ok, rejected (bad key/frame) otherwise.
func (m *Metrics) ReplicaStore(ok bool) {
	m.mu.Lock()
	if ok {
		m.replicaStores++
	} else {
		m.replicaStoreRejects++
	}
	m.mu.Unlock()
}

// ReplicaPush records one outbound replication PUT to an owner-set
// peer, delivered or failed.
func (m *Metrics) ReplicaPush(ok bool) {
	m.mu.Lock()
	if ok {
		m.replicaPushes++
	} else {
		m.replicaPushFails++
	}
	m.mu.Unlock()
}

// ReplicationQueued / ReplicationSettled move the pending-replication
// gauge as solves enter and leave the async push queue;
// ReplicationDropped records a solve whose replication was shed because
// the queue was full.
func (m *Metrics) ReplicationQueued()  { m.mu.Lock(); m.replicaPending++; m.mu.Unlock() }
func (m *Metrics) ReplicationDropped() { m.mu.Lock(); m.replicaDropped++; m.mu.Unlock() }

// ReplicationSettled records one queued solve fully pushed (or given
// up on), with the solve-to-replicated lag.
func (m *Metrics) ReplicationSettled(lag time.Duration) {
	m.mu.Lock()
	m.replicaPending--
	m.replicaLagSeconds += lag.Seconds()
	m.replicaLagCount++
	m.mu.Unlock()
}

// ReplicationSnapshot returns (pushes, failures, pending) for tests
// and soak-harness quiescence checks.
func (m *Metrics) ReplicationSnapshot() (pushes, fails uint64, pending int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replicaPushes, m.replicaPushFails, m.replicaPending
}

// Rejected records a queue-full 429; DrainRejected a draining 503.
func (m *Metrics) Rejected()      { m.mu.Lock(); m.rejections++; m.mu.Unlock() }
func (m *Metrics) DrainRejected() { m.mu.Lock(); m.drainRejects++; m.mu.Unlock() }

// BatchEnqueued records a carrier job admitted by SubmitBatch;
// BatchExecuted records a worker running n members as one kernel-pool
// submission.
func (m *Metrics) BatchEnqueued() {
	m.mu.Lock()
	m.batchesEnqueued++
	m.mu.Unlock()
}

func (m *Metrics) BatchExecuted(n int) {
	m.mu.Lock()
	m.batchesRun++
	m.batchMembers += uint64(n)
	m.mu.Unlock()
}

// JobFinished records a job reaching a terminal status.
func (m *Metrics) JobFinished(s Status) {
	m.mu.Lock()
	m.jobsTotal[s]++
	m.mu.Unlock()
}

// SolveDone records one completed solve (fresh compute, not a cache
// hit) with its wall latency and, for the loop solvers, modeled time.
func (m *Metrics) SolveDone(method string, wall time.Duration, virtualTime float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solves[method]++
	h, ok := m.latency[method]
	if !ok {
		h = &histogram{counts: make([]uint64, len(solveBuckets))}
		m.latency[method] = h
	}
	h.observe(wall.Seconds())
	if virtualTime > 0 {
		m.virtualSeconds[method] += virtualTime
	}
}

// HTTPResponse records the status code of a finished HTTP exchange.
func (m *Metrics) HTTPResponse(code int) {
	m.mu.Lock()
	m.httpCodes[code]++
	m.mu.Unlock()
}

// Snapshot returns (cache hits, singleflight hits, misses, solve
// count) for tests and reconciliation.
func (m *Metrics) Snapshot() (hits, joined, misses, solves uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.solves {
		solves += n
	}
	return m.cacheHits, m.singleflight, m.cacheMisses, solves
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

// WriteProm renders every counter and the sampled gauges in Prometheus
// text exposition format (version 0.0.4).
func (m *Metrics) WriteProm(w io.Writer, g Gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	gauge("lowrankd_queue_depth", "Jobs waiting in the submission queue.", float64(g.QueueDepth))
	gauge("lowrankd_queue_capacity", "Submission queue capacity.", float64(g.QueueCapacity))
	gauge("lowrankd_workers", "Configured worker slots.", float64(g.Workers))
	gauge("lowrankd_inflight_jobs", "Jobs currently being solved.", float64(g.Inflight))
	gauge("lowrankd_draining", "1 while the scheduler is draining.", b2f(g.Draining))
	gauge("lowrankd_gomaxprocs", "Kernel-pool parallelism (GOMAXPROCS).", float64(runtime.GOMAXPROCS(0)))

	counter("lowrankd_cache_hits_total", "Requests satisfied from the result cache.", m.cacheHits)
	counter("lowrankd_singleflight_hits_total", "Requests joined onto an identical in-flight job.", m.singleflight)
	counter("lowrankd_cache_misses_total", "Requests admitted for a fresh solve.", m.cacheMisses)
	counter("lowrankd_cache_evictions_total", "Cache entries evicted under the byte budget.", g.CacheEvictions)
	gauge("lowrankd_cache_entries", "Resident cache entries.", float64(g.CacheEntries))
	gauge("lowrankd_cache_bytes", "Estimated resident cache bytes.", float64(g.CacheBytes))
	gauge("lowrankd_cache_budget_bytes", "Cache byte budget.", float64(g.CacheBudget))
	counter("lowrankd_disk_cache_hits_total", "Admissions served from the on-disk cache tier.", m.diskHits)
	gauge("lowrankd_disk_cache_entries", "Resident on-disk cache entries.", float64(g.Disk.Entries))
	gauge("lowrankd_disk_cache_bytes", "Resident on-disk cache bytes.", float64(g.Disk.Bytes))
	gauge("lowrankd_disk_cache_budget_bytes", "On-disk cache byte budget (0 = tier disabled).", float64(g.Disk.Budget))
	counter("lowrankd_disk_cache_writes_total", "Factor files persisted to the cache directory.", g.Disk.Writes)
	counter("lowrankd_disk_cache_evictions_total", "On-disk entries evicted under the byte budget.", g.Disk.Evictions)
	counter("lowrankd_disk_cache_corrupt_total", "Corrupt/truncated cache files deleted at boot or read.", g.Disk.Dropped)
	counter("lowrankd_peer_fill_hits_total", "Local solves avoided by fetching factors from the ring owner.", m.peerFillHits)
	counter("lowrankd_peer_fill_misses_total", "Peer-fill attempts that fell back to a local solve.", m.peerFillMisses)
	counter("lowrankd_peer_fill_replica_hits_total", "Peer fills served by a non-primary owner-set member.", m.peerReplicaHits)
	counter("lowrankd_replica_stores_total", "Replicated frames accepted over PUT /v1/cache.", m.replicaStores)
	counter("lowrankd_replica_store_rejects_total", "Replicated frames rejected (bad key or frame).", m.replicaStoreRejects)
	counter("lowrankd_replication_pushes_total", "Replication PUTs delivered to owner-set peers.", m.replicaPushes)
	counter("lowrankd_replication_push_failures_total", "Replication PUTs that failed.", m.replicaPushFails)
	counter("lowrankd_replication_dropped_total", "Solves whose replication was shed (queue full).", m.replicaDropped)
	gauge("lowrankd_replication_pending", "Solves queued for replication, not yet pushed.", float64(m.replicaPending))
	fmt.Fprintf(w, "# HELP lowrankd_replication_lag_seconds Solve-to-replicated delay.\n# TYPE lowrankd_replication_lag_seconds summary\n")
	fmt.Fprintf(w, "lowrankd_replication_lag_seconds_sum %g\n", m.replicaLagSeconds)
	fmt.Fprintf(w, "lowrankd_replication_lag_seconds_count %d\n", m.replicaLagCount)
	counter("lowrankd_batches_total", "Batch carrier jobs admitted.", m.batchesEnqueued)
	counter("lowrankd_batches_run_total", "Batch carrier jobs executed.", m.batchesRun)
	counter("lowrankd_batch_jobs_total", "Member jobs solved inside a batch.", m.batchMembers)
	counter("lowrankd_queue_rejections_total", "Submissions rejected with 429 (queue full).", m.rejections)
	counter("lowrankd_drain_rejections_total", "Submissions rejected with 503 (draining).", m.drainRejects)
	gauge("lowrankd_resume_stores", "Retained checkpoint stores awaiting resume.", float64(g.ResumeStores))

	fmt.Fprintf(w, "# HELP lowrankd_jobs_total Jobs by terminal status.\n# TYPE lowrankd_jobs_total counter\n")
	for _, s := range []Status{StatusDone, StatusFailed, StatusCanceled, StatusExpired} {
		fmt.Fprintf(w, "lowrankd_jobs_total{status=%q} %d\n", string(s), m.jobsTotal[s])
	}

	fmt.Fprintf(w, "# HELP lowrankd_http_requests_total HTTP responses by status code.\n# TYPE lowrankd_http_requests_total counter\n")
	codes := make([]int, 0, len(m.httpCodes))
	for c := range m.httpCodes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "lowrankd_http_requests_total{code=\"%d\"} %d\n", c, m.httpCodes[c])
	}

	methods := make([]string, 0, len(m.solves))
	for name := range m.solves {
		methods = append(methods, name)
	}
	sort.Strings(methods)
	fmt.Fprintf(w, "# HELP lowrankd_solves_total Fresh solves by algorithm.\n# TYPE lowrankd_solves_total counter\n")
	for _, name := range methods {
		fmt.Fprintf(w, "lowrankd_solves_total{method=%q} %d\n", name, m.solves[name])
	}
	fmt.Fprintf(w, "# HELP lowrankd_solve_seconds Solve wall latency by algorithm.\n# TYPE lowrankd_solve_seconds histogram\n")
	for _, name := range methods {
		h := m.latency[name]
		if h == nil {
			continue
		}
		var cum uint64
		for i, le := range solveBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "lowrankd_solve_seconds_bucket{method=%q,le=%q} %d\n", name, formatLE(le), cum)
		}
		fmt.Fprintf(w, "lowrankd_solve_seconds_bucket{method=%q,le=\"+Inf\"} %d\n", name, h.total)
		fmt.Fprintf(w, "lowrankd_solve_seconds_sum{method=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "lowrankd_solve_seconds_count{method=%q} %d\n", name, h.total)
	}
	if len(m.virtualSeconds) > 0 {
		fmt.Fprintf(w, "# HELP lowrankd_dist_virtual_seconds_total Modeled runtime of the loop-solver solves (one-rank and distributed) by algorithm.\n# TYPE lowrankd_dist_virtual_seconds_total counter\n")
		vms := make([]string, 0, len(m.virtualSeconds))
		for name := range m.virtualSeconds {
			vms = append(vms, name)
		}
		sort.Strings(vms)
		for _, name := range vms {
			fmt.Fprintf(w, "lowrankd_dist_virtual_seconds_total{method=%q} %g\n", name, m.virtualSeconds[name])
		}
	}
}

func formatLE(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", le)
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/mat"
)

// Submission errors the HTTP layer maps to distinct status codes.
var (
	// ErrQueueFull: the bounded submission queue is at capacity (429).
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrDraining: the scheduler is shutting down (503).
	ErrDraining = errors.New("serve: scheduler draining")
)

// Outcome describes how a submission was satisfied.
type Outcome string

const (
	// Enqueued: admitted for a fresh solve.
	Enqueued Outcome = "enqueued"
	// CacheHit: answered immediately from the result cache.
	CacheHit Outcome = "cache_hit"
	// Joined: deduplicated onto an identical in-flight job.
	Joined Outcome = "joined"
)

// SolveFunc computes one approximation. store is non-nil only for
// checkpointed jobs (Spec.Checkpointed). Tests substitute this to
// count and gate solves; production uses DefaultSolve.
type SolveFunc func(spec *Spec, store *dist.CheckpointStore) (*core.Approximation, error)

// PeerFillFunc asks the fleet for an already-computed result before a
// worker solves key locally: in a sharded deployment it fetches
// GET /v1/cache/{key} from the key's ring owner (see internal/fleet).
// ok=false — a miss, a dead owner, a timeout — always falls back to the
// local solve, so peer fill can only remove work, never correctness.
type PeerFillFunc func(key string) (*core.Approximation, bool)

// ReplicateFunc pushes a freshly solved result toward the other
// members of its key's owner set (internal/fleet enqueues the frame
// and PUTs it to the R-1 replica owners asynchronously). It is called
// once per fresh solve, never for cache/peer hits, and must not block:
// replication is bounded best-effort so a slow peer cannot stall
// workers.
type ReplicateFunc func(key string, ap *core.Approximation)

// DefaultSolve materializes the matrix and runs the library entry
// point.
func DefaultSolve(spec *Spec, store *dist.CheckpointStore) (*core.Approximation, error) {
	a, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	opts := spec.CoreOptions()
	if store != nil {
		opts.CheckpointEvery = spec.CheckpointEvery
		opts.CheckpointStore = store
	}
	return core.Approximate(a, opts)
}

// ResumeRegistry retains the dist.CheckpointStore of every
// checkpointed job until that job succeeds, keyed by the job's
// content-addressed request key. A daemon restart that keeps the
// registry (or a failed run that is resubmitted) hands the store back
// to the solver, which resumes from the newest complete snapshot.
type ResumeRegistry struct {
	mu     sync.Mutex
	stores map[string]*dist.CheckpointStore
}

// NewResumeRegistry returns an empty registry.
func NewResumeRegistry() *ResumeRegistry {
	return &ResumeRegistry{stores: map[string]*dist.CheckpointStore{}}
}

// Acquire returns the retained store for key, creating one if absent.
func (r *ResumeRegistry) Acquire(key string) *dist.CheckpointStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.stores[key]
	if !ok {
		st = dist.NewCheckpointStore()
		r.stores[key] = st
	}
	return st
}

// Release drops the store for key (the job completed; its snapshots
// are dead weight).
func (r *ResumeRegistry) Release(key string) {
	r.mu.Lock()
	delete(r.stores, key)
	r.mu.Unlock()
}

// Len counts retained stores (an operational gauge).
func (r *ResumeRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stores)
}

// SchedulerConfig sizes a Scheduler. Zero values get defaults.
type SchedulerConfig struct {
	Workers    int           // worker slots (0 = 4)
	QueueDepth int           // bounded queue capacity (0 = 64)
	Deadline   time.Duration // default per-job deadline (0 = none)
	Solve      SolveFunc     // nil = DefaultSolve
	Cache      *Cache        // nil = no result cache
	Disk       *DiskCache    // nil = no persistent tier
	PeerFill   PeerFillFunc  // nil = never ask peers
	Replicate  ReplicateFunc // nil = no owner-set replication
	Resume     *ResumeRegistry
	Metrics    *Metrics // nil = a private unexported set
}

// Scheduler is the bounded job queue and worker pool. Submit applies
// admission control (cache, singleflight, queue capacity); workers
// drive SolveFunc; Drain stops admission and completes queued and
// in-flight work.
type Scheduler struct {
	cfg     SchedulerConfig
	queue   chan *Job
	wg      sync.WaitGroup
	metrics *Metrics

	mu       sync.Mutex
	draining bool
	closed   bool
	inflight map[string]*Job // singleflight: key → queued-or-running job
	jobs     map[string]*Job // id → job (bounded by jobHistory)
	order    []string        // insertion order of jobs, for trimming
	running  int
}

// jobHistory bounds the id → job map so an unattended daemon does not
// grow without bound; the oldest terminal jobs are dropped first.
const jobHistory = 4096

// NewScheduler builds and starts the worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Solve == nil {
		cfg.Solve = DefaultSolve
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	s := &Scheduler{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		metrics:  cfg.Metrics,
		inflight: map[string]*Job{},
		jobs:     map[string]*Job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the configured worker-slot count.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// QueueDepth returns (queued jobs, queue capacity).
func (s *Scheduler) QueueDepth() (int, int) { return len(s.queue), s.cfg.QueueDepth }

// Inflight returns the number of jobs currently being solved.
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit applies admission control to a validated spec and returns the
// job that will satisfy it (already terminal for a cache hit) plus the
// admission outcome. Errors: ErrDraining, ErrQueueFull.
func (s *Scheduler) Submit(spec *Spec) (*Job, Outcome, error) {
	key := spec.Key()
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()

	// Result cache first: a hit needs no queue slot even while full.
	if s.cfg.Cache != nil {
		if ap, ok := s.cfg.Cache.Get(key); ok {
			j := s.doneJobLocked(spec, ap, now)
			s.metrics.CacheHits.Inc()
			return j, CacheHit, nil
		}
	}
	// Singleflight: join an identical queued-or-running job.
	if flight, ok := s.inflight[key]; ok {
		s.metrics.SingleflightHits.Inc()
		return flight, Joined, nil
	}
	// Disk tier last: a restarted daemon serves its pre-restart keys
	// from the cache directory without re-solving. The hit is promoted
	// into the memory tier so the file is read at most once per warmup.
	if s.cfg.Disk != nil {
		if ap, ok := s.cfg.Disk.Get(key); ok {
			if s.cfg.Cache != nil {
				s.cfg.Cache.Put(key, ap)
			}
			j := s.doneJobLocked(spec, ap, now)
			s.metrics.DiskCacheHits.Inc()
			return j, CacheHit, nil
		}
	}
	if s.draining {
		s.metrics.DrainRejections.Inc()
		return nil, "", ErrDraining
	}
	j := newJob(nextJobID(), spec, now, spec.Deadline(now, s.cfg.Deadline))
	select {
	case s.queue <- j:
	default:
		s.metrics.QueueRejections.Inc()
		return nil, "", ErrQueueFull
	}
	s.inflight[key] = j
	s.rememberLocked(j)
	s.metrics.CacheMisses.Inc()
	return j, Enqueued, nil
}

// SubmitBatch admits many specs at once, all-or-nothing. Admission per
// member mirrors Submit — result cache first, then singleflight (joins
// work across the batch too: duplicate keys within one batch share a
// job) — but members that need a fresh solve and are Spec.BatchEligible
// are grouped onto a single carrier job that a worker executes as one
// kernel-pool submission (mat.BatchRun), so N concurrent small solves
// cost one dispatch instead of N. Fresh members that are not eligible
// are enqueued individually, exactly as Submit would.
//
// If the fresh members do not all fit the queue the whole batch is
// rejected with ErrQueueFull and nothing is admitted; a draining
// scheduler rejects any batch that needs fresh work with ErrDraining.
func (s *Scheduler) SubmitBatch(specs []*Spec) ([]*Job, []Outcome, error) {
	if len(specs) == 0 {
		return nil, nil, errors.New("serve: empty batch")
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()

	// Plan pass: classify every member without mutating scheduler state,
	// so rejection leaves no trace.
	const (
		planCache = iota
		planJoin
		planLocalDup
		planFreshBatch
		planFreshSolo
	)
	kinds := make([]int, len(specs))
	aps := make([]*core.Approximation, len(specs))
	disk := make([]bool, len(specs))
	flights := make([]*Job, len(specs))
	dups := make([]int, len(specs))
	keys := make([]string, len(specs))
	firstByKey := map[string]int{}
	slotsNeeded, batchFresh := 0, 0
	for i, spec := range specs {
		keys[i] = spec.Key()
		if s.cfg.Cache != nil {
			if ap, ok := s.cfg.Cache.Get(keys[i]); ok {
				kinds[i], aps[i] = planCache, ap
				continue
			}
		}
		if flight, ok := s.inflight[keys[i]]; ok {
			kinds[i], flights[i] = planJoin, flight
			continue
		}
		if s.cfg.Disk != nil {
			if ap, ok := s.cfg.Disk.Get(keys[i]); ok {
				kinds[i], aps[i], disk[i] = planCache, ap, true
				continue
			}
		}
		if first, ok := firstByKey[keys[i]]; ok {
			kinds[i], dups[i] = planLocalDup, first
			continue
		}
		firstByKey[keys[i]] = i
		if spec.BatchEligible() {
			kinds[i] = planFreshBatch
			batchFresh++
		} else {
			kinds[i] = planFreshSolo
			slotsNeeded++
		}
	}
	if batchFresh > 0 {
		slotsNeeded++ // the carrier
	}
	if slotsNeeded > 0 {
		if s.draining {
			s.metrics.DrainRejections.Inc()
			return nil, nil, ErrDraining
		}
		// Producers serialize on s.mu and workers only free slots, so
		// this capacity check cannot race with another submitter.
		if free := cap(s.queue) - len(s.queue); free < slotsNeeded {
			s.metrics.QueueRejections.Inc()
			return nil, nil, ErrQueueFull
		}
	}

	// Commit pass: every enqueue below is guaranteed to succeed.
	jobs := make([]*Job, len(specs))
	outcomes := make([]Outcome, len(specs))
	var members []*Job
	for i, spec := range specs {
		switch kinds[i] {
		case planCache:
			j := s.doneJobLocked(spec, aps[i], now)
			if disk[i] {
				if s.cfg.Cache != nil {
					s.cfg.Cache.Put(keys[i], aps[i])
				}
				s.metrics.DiskCacheHits.Inc()
			} else {
				s.metrics.CacheHits.Inc()
			}
			jobs[i], outcomes[i] = j, CacheHit
		case planJoin:
			s.metrics.SingleflightHits.Inc()
			jobs[i], outcomes[i] = flights[i], Joined
		case planLocalDup:
			s.metrics.SingleflightHits.Inc()
			jobs[i], outcomes[i] = jobs[dups[i]], Joined
		default:
			j := newJob(nextJobID(), spec, now, spec.Deadline(now, s.cfg.Deadline))
			s.inflight[keys[i]] = j
			s.rememberLocked(j)
			s.metrics.CacheMisses.Inc()
			jobs[i], outcomes[i] = j, Enqueued
			if kinds[i] == planFreshBatch {
				members = append(members, j)
			} else {
				s.queue <- j
			}
		}
	}
	if len(members) > 0 {
		s.queue <- &Job{batch: members}
		s.metrics.Batches.Inc()
	}
	return jobs, outcomes, nil
}

// doneJobLocked builds, remembers and returns an already-terminal job
// carrying a cached result. Caller holds s.mu.
func (s *Scheduler) doneJobLocked(spec *Spec, ap *core.Approximation, now time.Time) *Job {
	j := newJob(nextJobID(), spec, now, time.Time{})
	j.cached = true
	j.status = StatusDone
	j.ap = ap
	j.finishedAt = now
	close(j.done)
	s.rememberLocked(j)
	return j
}

// rememberLocked indexes a job by id, trimming the oldest terminal
// jobs past jobHistory. Caller holds s.mu.
func (s *Scheduler) rememberLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > jobHistory {
		old, ok := s.jobs[s.order[0]]
		if ok && !old.Status().Terminal() {
			break // never forget a live job
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Job looks a job up by id.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a still-queued job by id. It reports false when the
// job is unknown or already running/terminal (solves are not
// preemptible).
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	if !j.cancel(StatusCanceled, fmt.Errorf("serve: job %s canceled", id), time.Now()) {
		return false
	}
	s.clearFlight(j)
	s.metrics.Jobs.Inc(string(StatusCanceled))
	return true
}

// clearFlight removes a job from the singleflight table if it is still
// the registered flight for its key.
func (s *Scheduler) clearFlight(j *Job) {
	s.mu.Lock()
	if cur, ok := s.inflight[j.Key]; ok && cur == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
}

// worker drains the queue: carrier jobs fan out over the kernel pool,
// everything else solves inline on this worker.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if len(j.batch) > 0 {
			s.runBatch(j.batch)
			continue
		}
		s.runOne(j)
	}
}

// startable applies the queued-job prologue — deadline expiry, then the
// queued → running transition — reporting whether the job should solve.
// Jobs that do not start have already settled their status, waiters and
// metrics.
func (s *Scheduler) startable(j *Job, now time.Time) bool {
	if !j.Deadline.IsZero() && now.After(j.Deadline) {
		if j.cancel(StatusExpired, fmt.Errorf("serve: job %s deadline exceeded while queued", j.ID), now) {
			s.metrics.Jobs.Inc(string(StatusExpired))
		}
		s.clearFlight(j)
		return false
	}
	if !j.markRunning(now) {
		// Canceled (or raced to expiry) while queued; cancel already
		// settled status, waiters and metrics.
		s.clearFlight(j)
		return false
	}
	return true
}

// settle publishes one finished solve: cache, metrics, terminal status,
// waiters, singleflight. A nil err is success.
func (s *Scheduler) settle(j *Job, ap *core.Approximation, err error, wall time.Duration, store *dist.CheckpointStore) {
	if err == nil {
		if s.cfg.Cache != nil {
			s.cfg.Cache.Put(j.Key, ap)
		}
		if s.cfg.Disk != nil {
			s.cfg.Disk.Put(j.Key, ap)
		}
		if s.cfg.Resume != nil && store != nil {
			s.cfg.Resume.Release(j.Key)
		}
		if s.cfg.Replicate != nil {
			s.cfg.Replicate(j.Key, ap)
		}
		s.metrics.SolveDone(j.Spec.Method, wall, apVirtualTime(ap))
		j.finish(StatusDone, ap, nil, time.Now())
		s.metrics.Jobs.Inc(string(StatusDone))
	} else {
		// Keep the checkpoint store: a resubmission resumes from the
		// newest complete snapshot.
		j.finish(StatusFailed, nil, err, time.Now())
		s.metrics.Jobs.Inc(string(StatusFailed))
	}
	s.clearFlight(j)
}

// peerFill tries to satisfy a started job from the key's ring owner
// instead of solving. A fetched result is installed into the in-memory
// LRU (not the disk tier: the cache directory holds what *this* shard
// computed) and the job finishes as a cached success. Reports whether
// the job was settled.
func (s *Scheduler) peerFill(j *Job) bool {
	if s.cfg.PeerFill == nil {
		return false
	}
	ap, ok := s.cfg.PeerFill(j.Key)
	if !ok {
		s.metrics.PeerFillMisses.Inc()
		return false
	}
	s.metrics.PeerFillHits.Inc()
	if s.cfg.Cache != nil {
		s.cfg.Cache.Put(j.Key, ap)
	}
	j.markCached()
	j.finish(StatusDone, ap, nil, time.Now())
	s.metrics.Jobs.Inc(string(StatusDone))
	s.clearFlight(j)
	return true
}

// runOne solves a single job on the calling worker.
func (s *Scheduler) runOne(j *Job) {
	if !s.startable(j, time.Now()) {
		return
	}
	if s.peerFill(j) {
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()

	var store *dist.CheckpointStore
	if s.cfg.Resume != nil && j.Spec.Checkpointed() {
		store = s.cfg.Resume.Acquire(j.Key)
	}
	start := time.Now()
	ap, err := s.cfg.Solve(j.Spec, store)
	wall := time.Since(start)
	s.settle(j, ap, err, wall, store)

	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

// runBatch solves the still-startable members of a carrier as one
// kernel-pool submission: the batch is the parallel dimension, so many
// sub-threshold solves share one dispatch instead of thrashing the
// kernels' serial thresholds one job at a time. Members are
// BatchEligible by construction (Procs ≤ 1), so none is checkpointed.
func (s *Scheduler) runBatch(members []*Job) {
	now := time.Now()
	run := make([]*Job, 0, len(members))
	for _, j := range members {
		if s.startable(j, now) && !s.peerFill(j) {
			run = append(run, j)
		}
	}
	if len(run) == 0 {
		return
	}
	s.mu.Lock()
	s.running += len(run)
	s.mu.Unlock()
	s.metrics.BatchExecuted(len(run))

	aps := make([]*core.Approximation, len(run))
	errs := make([]error, len(run))
	walls := make([]time.Duration, len(run))
	mat.BatchRun(len(run), func(i int) {
		start := time.Now()
		aps[i], errs[i] = s.cfg.Solve(run[i].Spec, nil)
		walls[i] = time.Since(start)
	})
	for i, j := range run {
		s.settle(j, aps[i], errs[i], walls[i], nil)
	}

	s.mu.Lock()
	s.running -= len(run)
	s.mu.Unlock()
}

func apVirtualTime(ap *core.Approximation) float64 {
	if ap == nil {
		return 0
	}
	return ap.VirtualTime
}

// Drain stops admission (new submissions fail with ErrDraining; joins
// on in-flight jobs still succeed), lets the workers finish every
// queued and in-flight job, and returns when the pool is idle or ctx
// expires. It is idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work outstanding: %w", ctx.Err())
	}
}

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
	queue   chan run
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
		queue:    make(chan run, cfg.QueueDepth),
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

// QueueDepth returns (queued runs, queue capacity); a batch's shared
// run counts once.
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
// admission outcome: a one-member admission, never grouped with other
// work. Errors: ErrDraining, ErrQueueFull.
func (s *Scheduler) Submit(spec *Spec) (*Job, Outcome, error) {
	var job [1]*Job
	var outcome [1]Outcome
	err := s.admit([]*Spec{spec}, job[:], outcome[:], false)
	return job[0], outcome[0], err
}

// SubmitBatch admits many specs at once, all-or-nothing, on the same
// admission path as Submit — duplicate keys within one batch share a
// job — but members that need a fresh solve and are Spec.BatchEligible
// are grouped onto a single run that a worker executes as one
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
	jobs := make([]*Job, len(specs))
	outcomes := make([]Outcome, len(specs))
	if err := s.admit(specs, jobs, outcomes, true); err != nil {
		return nil, nil, err
	}
	return jobs, outcomes, nil
}

// admission is one member's plan: how admit will satisfy it.
type admission struct {
	key   string
	how   Outcome
	ap    *core.Approximation // CacheHit: the cached result
	disk  bool                // CacheHit from the disk tier
	join  *Job                // Joined: the in-flight job; nil when joining member dup
	dup   int
	group bool // Enqueued onto the shared run
}

// admit is the one admission path. Each spec is planned in turn against
// the memory cache, the singleflight table (earlier members of the same
// call included) and the disk tier; if any member then needs a fresh
// solve, a draining scheduler rejects the call with ErrDraining and a
// queue without room for every new run with ErrQueueFull. The plan pass
// changes nothing, so a rejection leaves no trace; otherwise the commit
// pass fills jobs[i] and outcomes[i] for every spec. With group, the
// BatchEligible fresh members share one run; without it every fresh
// member is a run of one.
func (s *Scheduler) admit(specs []*Spec, jobs []*Job, outcomes []Outcome, group bool) error {
	var one [1]admission
	plan := one[:]
	if len(specs) > 1 {
		plan = make([]admission, len(specs))
	}
	for i, spec := range specs {
		plan[i].key = spec.Key()
	}
	now := time.Now()

	s.mu.Lock()
	defer s.mu.Unlock()

	fresh := map[string]int{} // key → first fresh member
	runs, grouped := 0, 0
	for i, spec := range specs {
		p := &plan[i]
		// Result cache first: a hit needs no queue slot even while full.
		if ap, ok := s.cfg.Cache.Get(p.key); ok {
			p.how, p.ap = CacheHit, ap
			continue
		}
		// Singleflight: join an identical queued-or-running job.
		if flight, ok := s.inflight[p.key]; ok {
			p.how, p.join = Joined, flight
			continue
		}
		// Disk tier last: a restarted daemon serves its pre-restart keys
		// from the cache directory without re-solving.
		if ap, ok := s.cfg.Disk.Get(p.key); ok {
			p.how, p.ap, p.disk = CacheHit, ap, true
			continue
		}
		if first, ok := fresh[p.key]; ok {
			p.how, p.dup = Joined, first
			continue
		}
		fresh[p.key] = i
		p.how = Enqueued
		if p.group = group && spec.BatchEligible(); p.group {
			grouped++
		} else {
			runs++
		}
	}
	if grouped > 0 {
		runs++ // the shared run
	}
	if runs > 0 {
		if s.draining {
			s.metrics.DrainRejections.Inc()
			return ErrDraining
		}
		// Producers serialize on s.mu and workers only free slots, so
		// this capacity check cannot race with another submitter.
		if free := cap(s.queue) - len(s.queue); free < runs {
			s.metrics.QueueRejections.Inc()
			return ErrQueueFull
		}
	}

	// Commit pass: every enqueue below is guaranteed to succeed.
	var shared []*Job
	for i, spec := range specs {
		p := &plan[i]
		switch p.how {
		case CacheHit:
			jobs[i] = s.doneJobLocked(spec, p.key, p.ap, now)
			if p.disk {
				// Promote into the memory tier so the file is read at
				// most once per warmup.
				s.cfg.Cache.Put(p.key, p.ap)
				s.metrics.DiskCacheHits.Inc()
			} else {
				s.metrics.CacheHits.Inc()
			}
		case Joined:
			s.metrics.SingleflightHits.Inc()
			if jobs[i] = p.join; p.join == nil {
				jobs[i] = jobs[p.dup]
			}
		default:
			j := newJob(nextJobID(), p.key, spec, now, spec.Deadline(now, s.cfg.Deadline))
			s.inflight[p.key] = j
			s.rememberLocked(j)
			s.metrics.CacheMisses.Inc()
			jobs[i] = j
			if p.group {
				shared = append(shared, j)
			} else {
				s.queue <- run{jobs: []*Job{j}}
			}
		}
		outcomes[i] = p.how
	}
	if len(shared) > 0 {
		s.queue <- run{jobs: shared, batched: true}
		s.metrics.Batches.Inc()
	}
	return nil
}

// doneJobLocked builds, remembers and returns an already-terminal job
// carrying a cached result. Caller holds s.mu.
func (s *Scheduler) doneJobLocked(spec *Spec, key string, ap *core.Approximation, now time.Time) *Job {
	j := newJob(nextJobID(), key, spec, now, time.Time{})
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

// run is one queue entry: the jobs a worker executes as one kernel-pool
// submission. A Submit admission is a run of one; SubmitBatch puts its
// BatchEligible fresh members on one batched run.
type run struct {
	jobs    []*Job
	batched bool // counted by the lowrankd_batch* series
}

// worker drains the queue, executing one run at a time.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		s.execute(r)
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
		s.cfg.Cache.Put(j.Key, ap)
		s.cfg.Disk.Put(j.Key, ap)
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
	s.cfg.Cache.Put(j.Key, ap)
	j.markCached()
	j.finish(StatusDone, ap, nil, time.Now())
	s.metrics.Jobs.Inc(string(StatusDone))
	s.clearFlight(j)
	return true
}

// execute solves the members of a run that are still startable and
// that peer fill does not satisfy as one kernel-pool submission: the run
// is the parallel dimension, so many sub-threshold solves share one
// dispatch, and mat.BatchRun solves a run of one inline on this worker.
// Checkpointed jobs (never batched: they are distributed) get their
// retained checkpoint store.
func (s *Scheduler) execute(r run) {
	now := time.Now()
	jobs := r.jobs[:0]
	for _, j := range r.jobs {
		if s.startable(j, now) && !s.peerFill(j) {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return
	}
	s.mu.Lock()
	s.running += len(jobs)
	s.mu.Unlock()
	if r.batched {
		s.metrics.BatchExecuted(len(jobs))
	}

	type solved struct {
		ap    *core.Approximation
		err   error
		wall  time.Duration
		store *dist.CheckpointStore
	}
	out := make([]solved, len(jobs))
	for i, j := range jobs {
		if s.cfg.Resume != nil && j.Spec.Checkpointed() {
			out[i].store = s.cfg.Resume.Acquire(j.Key)
		}
	}
	mat.BatchRun(len(jobs), func(i int) {
		start := time.Now()
		out[i].ap, out[i].err = s.cfg.Solve(jobs[i].Spec, out[i].store)
		out[i].wall = time.Since(start)
	})
	for i, j := range jobs {
		s.settle(j, out[i].ap, out[i].err, out[i].wall, out[i].store)
	}

	s.mu.Lock()
	s.running -= len(jobs)
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

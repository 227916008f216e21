package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sparselr/internal/core"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker slot.
	StatusQueued Status = "queued"
	// StatusRunning: a worker is solving it.
	StatusRunning Status = "running"
	// StatusDone: solved; the result is available (and cached).
	StatusDone Status = "done"
	// StatusFailed: the solve returned an error.
	StatusFailed Status = "failed"
	// StatusCanceled: canceled while still queued; never started.
	StatusCanceled Status = "canceled"
	// StatusExpired: its deadline passed while it was still queued;
	// never started.
	StatusExpired Status = "expired"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusExpired:
		return true
	}
	return false
}

// Job is one tracked approximation request. All mutable fields are
// guarded by mu; Wait blocks on done, which closes exactly once when
// the job reaches a terminal status.
type Job struct {
	ID   string
	Key  string
	Spec *Spec

	EnqueuedAt time.Time
	Deadline   time.Time // zero = none

	mu         sync.Mutex
	status     Status
	cached     bool // satisfied from the result cache (or joined a flight)
	startedAt  time.Time
	finishedAt time.Time
	ap         *core.Approximation
	err        error

	done chan struct{}
}

// newJob builds a queued job; key is spec.Key(), hashed once by the
// caller.
func newJob(id, key string, spec *Spec, now time.Time, deadline time.Time) *Job {
	return &Job{
		ID:         id,
		Key:        key,
		Spec:       spec,
		EnqueuedAt: now,
		Deadline:   deadline,
		status:     StatusQueued,
		done:       make(chan struct{}),
	}
}

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the approximation and error of a terminal job.
func (j *Job) Result() (*core.Approximation, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ap, j.err
}

// Wait blocks until the job is terminal or ctx is done. It returns the
// job's error (nil for success); ctx expiry returns the ctx error.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		_, err := j.Result()
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// markCached flags a job as satisfied without a fresh local solve
// (peer cache fill).
func (j *Job) markCached() {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
}

// markRunning transitions queued → running; false if the job is no
// longer startable (canceled or expired).
func (j *Job) markRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	if !j.Deadline.IsZero() && now.After(j.Deadline) {
		return false
	}
	j.status = StatusRunning
	j.startedAt = now
	return true
}

// finish moves the job to a terminal status exactly once.
func (j *Job) finish(status Status, ap *core.Approximation, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	j.status = status
	j.ap = ap
	j.err = err
	j.finishedAt = now
	close(j.done)
}

// cancel marks a still-queued job canceled (or expired). Running jobs
// are not preemptible — the solve runs to completion and its result is
// still cached; cancel then reports false.
func (j *Job) cancel(to Status, err error, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = to
	j.err = err
	j.finishedAt = now
	close(j.done)
	return true
}

// View is the JSON representation of a job for the HTTP API.
type View struct {
	ID         string  `json:"id"`
	Key        string  `json:"key"`
	Status     Status  `json:"status"`
	Cached     bool    `json:"cached"`
	Error      string  `json:"error,omitempty"`
	ErrorClass string  `json:"error_class,omitempty"`
	ExitCode   int     `json:"exit_code,omitempty"` // cmd/lowrank-equivalent
	QueueMS    float64 `json:"queue_ms,omitempty"`
	SolveMS    float64 `json:"solve_ms,omitempty"`

	Result *ResultView `json:"result,omitempty"`
}

// ResultView summarizes a completed approximation.
type ResultView struct {
	Method       string   `json:"method"`
	Rank         int      `json:"rank"`
	Iters        int      `json:"iterations"`
	Converged    bool     `json:"converged"`
	ErrIndicator float64  `json:"err_indicator"`
	NormA        float64  `json:"norm_a"`
	NNZFactors   int      `json:"factor_nnz"`
	WallMS       float64  `json:"wall_ms"`
	VirtualTime  float64  `json:"virtual_time,omitempty"`
	CommTime     float64  `json:"comm_time,omitempty"`
	Factors      []string `json:"factors"`
}

// view snapshots the job for serialization.
func (j *Job) view() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{ID: j.ID, Key: j.Key, Status: j.status, Cached: j.cached}
	if !j.startedAt.IsZero() {
		v.QueueMS = float64(j.startedAt.Sub(j.EnqueuedAt)) / float64(time.Millisecond)
		if !j.finishedAt.IsZero() {
			v.SolveMS = float64(j.finishedAt.Sub(j.startedAt)) / float64(time.Millisecond)
		}
	}
	if j.err != nil {
		class := core.ClassifyFailure(j.err)
		v.Error = j.err.Error()
		v.ErrorClass = class.String()
		v.ExitCode = class.ExitCode()
	}
	if j.ap != nil {
		v.Result = resultView(j.ap)
	}
	return v
}

func resultView(ap *core.Approximation) *ResultView {
	return &ResultView{
		Method:       ap.Method.String(),
		Rank:         ap.Rank,
		Iters:        ap.Iters,
		Converged:    ap.Converged,
		ErrIndicator: ap.ErrIndicator,
		NormA:        ap.NormA,
		NNZFactors:   ap.NNZFactors,
		WallMS:       float64(ap.WallTime) / float64(time.Millisecond),
		VirtualTime:  ap.VirtualTime,
		CommTime:     ap.CommTime,
		Factors:      factorNames(ap),
	}
}

// factorNames lists the factors a completed approximation exposes via
// GET /v1/jobs/{id}/factors/{name}.
func factorNames(ap *core.Approximation) []string {
	var buf [core.MaxFactors]core.Factor
	fs := ap.Factors(buf[:0])
	if len(fs) == 0 {
		return nil
	}
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// jobIDCounter backs the process-local job IDs.
var jobIDCounter struct {
	mu sync.Mutex
	n  uint64
}

func nextJobID() string {
	jobIDCounter.mu.Lock()
	jobIDCounter.n++
	n := jobIDCounter.n
	jobIDCounter.mu.Unlock()
	return fmt.Sprintf("job-%d", n)
}

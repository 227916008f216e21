package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernel worker pool. Every parallel kernel in this package (and, via
// ParallelFor, in internal/sparse) runs on these goroutines instead of
// spawning fresh ones per call. Workers are started lazily on the first
// parallel region and grow on demand up to maxPoolWorkers; they then live
// for the life of the process, parked on a channel receive, so steady-state
// kernel dispatch costs one channel send per helper rather than a goroutine
// spawn.
const maxPoolWorkers = 256

var kernelPool = struct {
	mu      sync.Mutex
	spawned int
	tasks   chan *forJob
}{tasks: make(chan *forJob, maxPoolWorkers)}

func poolWorker() {
	for j := range kernelPool.tasks {
		j.runChunks()
		j.release()
	}
}

// ensureWorkers makes sure at least n pool workers exist.
func ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	kernelPool.mu.Lock()
	for kernelPool.spawned < n {
		go poolWorker()
		kernelPool.spawned++
	}
	kernelPool.mu.Unlock()
}

// forJob is one parallel ParallelFor region, shared by the caller and the
// helpers it queued. Jobs are pooled so a steady-state call allocates
// nothing. Every holder (the caller and each queued helper) owns one
// reference, and the last one to drop it returns the job to the pool: a
// helper that starts late, after the caller has already returned, still
// finds its own job, claims no chunk and leaves, and never sees a later
// call's fields.
type forJob struct {
	fn       func(lo, hi int)
	n, grain int
	chunks   int64
	next     atomic.Int64
	refs     atomic.Int32
	// The WaitGroup counts chunks, not helpers: a queued helper that
	// never gets a worker claims no chunks and therefore blocks nobody,
	// and every claimed chunk is owned by a goroutine that is actively
	// running it.
	wg sync.WaitGroup
}

var forJobPool = sync.Pool{New: func() any { return new(forJob) }}

// runChunks claims chunks through the shared counter until none remain.
func (j *forJob) runChunks() {
	for {
		c := j.next.Add(1) - 1
		if c >= j.chunks {
			return
		}
		lo := int(c) * j.grain
		j.fn(lo, min(lo+j.grain, j.n))
		j.wg.Done()
	}
}

// release drops one reference, recycling the job with the last.
func (j *forJob) release() {
	if j.refs.Add(-1) == 0 {
		j.fn = nil
		forJobPool.Put(j)
	}
}

// ParallelFor executes fn over the index range [0, n) split into chunks of
// size grain, using up to GOMAXPROCS goroutines (the caller plus pool
// workers). Chunks are handed out dynamically through an atomic counter, so
// any worker that is busy elsewhere simply contributes nothing and the
// caller picks up the slack — the call never deadlocks and never blocks on
// a full task queue.
//
// Each index is processed by exactly one goroutine and chunk boundaries
// depend only on n, grain and GOMAXPROCS, so kernels whose chunks touch
// disjoint output regions are bitwise deterministic. With GOMAXPROCS=1 (or
// a single chunk) fn runs inline on the caller: the serial path. Either
// way a steady-state call allocates nothing.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	maxPar := runtime.GOMAXPROCS(0)
	if chunks < 2 || maxPar < 2 {
		fn(0, n)
		return
	}
	helpers := maxPar - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	if helpers > maxPoolWorkers {
		helpers = maxPoolWorkers
	}
	ensureWorkers(helpers)
	j := forJobPool.Get().(*forJob)
	j.fn, j.n, j.grain, j.chunks = fn, n, grain, int64(chunks)
	j.next.Store(0)
	j.refs.Store(1)
	j.wg.Add(chunks)
	for i := 0; i < helpers; i++ {
		j.refs.Add(1)
		select {
		case kernelPool.tasks <- j:
		default:
			// Queue full (heavy concurrent kernel traffic): skip this
			// helper; the caller's work loop covers the chunks.
			j.refs.Add(-1)
		}
	}
	j.runChunks()
	j.wg.Wait()
	j.release()
}

// ChunkGrain returns a grain that splits n indices into at most one
// ParallelFor chunk per available processor. Kernels that allocate one
// accumulator per chunk and reduce them in chunk order use it to bound
// both memory and the number of partial reductions.
func ChunkGrain(n int) int {
	nw := runtime.GOMAXPROCS(0)
	if nw < 1 {
		nw = 1
	}
	g := (n + nw - 1) / nw
	if g < 1 {
		g = 1
	}
	return g
}

// Scratch pools. Kernels that need a transient accumulator or packing
// buffer draw it from these pools instead of the heap, so steady-state
// solver iterations stop churning the GC. Both pools hand out grow-only
// storage: a pooled object whose capacity is too small is simply
// replaced by a larger one.

var scratchPool = sync.Pool{New: func() any { p := make([]float64, 0); return &p }}

// GetScratch returns a pooled float64 slice of length n with unspecified
// contents. Release it with PutScratch when done.
func GetScratch(n int) *[]float64 {
	p := scratchPool.Get().(*[]float64)
	if cap(*p) < n {
		// Grow geometrically: a kernel whose operand widens a little on
		// every solver iteration (a growing basis) would otherwise
		// reallocate on every call, quadratic bytes over the solve.
		*p = make([]float64, n, max(n, 2*cap(*p)))
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a slice obtained from GetScratch to the pool.
func PutScratch(p *[]float64) { scratchPool.Put(p) }

// Buffer is a grow-only scratch matrix for per-iteration solver
// workspaces: Shape reuses the buffer's backing storage as a compact r×c
// matrix, reallocating only when the requested size first exceeds the
// capacity. The returned header is owned by the Buffer and is
// invalidated by the next Shape call.
type Buffer struct {
	data []float64
	hdr  Dense
}

// Shape returns the buffer viewed as an r×c matrix with unspecified
// contents (kernels that overwrite their destination need no zeroing).
func (b *Buffer) Shape(r, c int) *Dense {
	if need := r * c; cap(b.data) < need {
		b.data = make([]float64, need)
	}
	b.hdr = Dense{Rows: r, Cols: c, Stride: c, Data: b.data[:r*c]}
	return &b.hdr
}

// ShapeZero returns the buffer viewed as a zeroed r×c matrix.
func (b *Buffer) ShapeZero(r, c int) *Dense {
	d := b.Shape(r, c)
	d.Zero()
	return d
}

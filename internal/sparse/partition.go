package sparse

import (
	"runtime"
	"sort"
	"sync"

	"sparselr/internal/mat"
)

// nnz-balanced partitioning. Uniform row splits serialize on power-law
// matrices (a circuit hub row can hold thousands of entries while its
// neighbours hold three), so the parallel sparse kernels split rows by
// equal shares of *stored entries* instead: the chunk boundaries are
// binary-searched in a nonzero prefix sum, which for CSR is exactly
// RowPtr. Boundaries depend only on the matrix and the requested chunk
// count, never on scheduling, so kernels whose chunks write disjoint
// output regions stay bitwise deterministic.

// chunksByPrefixInto splits [0, len(prefix)-1) into nchunks contiguous
// ranges whose prefix-sum weights are as equal as row granularity allows.
// prefix must be nondecreasing with prefix[0] == 0 (RowPtr, or any
// per-row cost prefix). The result is a bounds slice b of length
// nchunks+1 with b[0] = 0 and b[nchunks] = n; chunk c covers rows
// [b[c], b[c+1]) and may be empty when one row dominates the weight.
// It writes into dst's storage when it is large enough.
func chunksByPrefixInto(dst, prefix []int, nchunks int) []int {
	n := len(prefix) - 1
	if nchunks > n {
		nchunks = n
	}
	if nchunks < 1 {
		nchunks = 1
	}
	if cap(dst) < nchunks+1 {
		dst = make([]int, nchunks+1)
	}
	bounds := dst[:nchunks+1]
	bounds[0] = 0
	bounds[nchunks] = n
	total := prefix[n] - prefix[0]
	if total <= 0 {
		// No weight anywhere: fall back to a uniform row split so work
		// that scales with row count (output zeroing) still spreads.
		for c := 1; c < nchunks; c++ {
			bounds[c] = c * n / nchunks
		}
		return bounds
	}
	for c := 1; c < nchunks; c++ {
		target := prefix[0] + total*c/nchunks
		r := sort.SearchInts(prefix, target)
		if r > n {
			r = n
		}
		if r < bounds[c-1] {
			r = bounds[c-1]
		}
		bounds[c] = r
	}
	return bounds
}

// spmmChunksPerProc is the number of nnz-balanced chunks handed to the
// pool per processor. A few chunks per worker lets the dynamic ParallelFor
// scheduler absorb the residual imbalance that row granularity leaves
// (a single hub row can still exceed the ideal chunk weight).
const spmmChunksPerProc = 4

// ParallelRowsByNNZ runs fn over nnz-balanced row ranges of a on the
// shared kernel pool, spmmChunksPerProc chunks per processor. Empty
// chunks are skipped. fn must treat its ranges as disjoint row work;
// ranges and their order of issue depend only on the matrix shape and
// GOMAXPROCS. The bounds and the chunk body come from a pool, so a
// steady-state call allocates nothing of its own.
func (a *CSR) ParallelRowsByNNZ(fn func(lo, hi int)) {
	j := rowChunkJobs.Get().(*rowChunkJob)
	j.bounds = chunksByPrefixInto(j.bounds, a.RowPtr, spmmChunksPerProc*runtime.GOMAXPROCS(0))
	j.fn = fn
	mat.ParallelFor(len(j.bounds)-1, 1, j.run)
	j.fn = nil
	rowChunkJobs.Put(j)
}

// rowChunkJob is one ParallelRowsByNNZ dispatch: the chunk bounds and
// the body the pool runs over them.
type rowChunkJob struct {
	bounds []int
	fn     func(lo, hi int)
	run    func(clo, chi int) // runChunks bound once per pooled job
}

var rowChunkJobs = sync.Pool{New: func() any {
	j := new(rowChunkJob)
	j.run = j.runChunks
	return j
}}

func (j *rowChunkJob) runChunks(clo, chi int) {
	for c := clo; c < chi; c++ {
		if j.bounds[c] < j.bounds[c+1] {
			j.fn(j.bounds[c], j.bounds[c+1])
		}
	}
}

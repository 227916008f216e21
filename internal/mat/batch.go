package mat

// Batched small-problem execution. A product below gemmParallelThreshold
// runs serially — correct for one call, but N concurrent small solves then
// thrash the threshold: each pays dispatch overhead yet none is big enough
// to occupy the pool. BatchRun inverts the split: the batch itself becomes
// the parallel dimension, so many sub-threshold problems run as one
// ParallelFor over problems. Each problem runs exactly the code a
// standalone call would, so results are bitwise identical to running the
// calls one by one.

// BatchRun executes fn(i) for i in [0, n) across the worker pool, one
// problem per work item. fn must not touch state shared between problems.
func BatchRun(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	ParallelFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

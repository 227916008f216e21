package randqb

import (
	"math/rand"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

func allocTestMatrix(m, n, nnzPerRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for t := 0; t < nnzPerRow; t++ {
			b.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return b.ToCSR()
}

// stepAllocs drives the SPMD step on a one-rank world, as Factor does:
// it runs to the rank cap once so every store and workspace has grown to
// its steady-state capacity, then measures a mid-run step with the loop
// counters rewound (Q_K present, room to grow). The sketch stream keeps
// advancing across measured runs, which is fine — drawing from a warmed
// sketcher is allocation-free.
func stepAllocs(t *testing.T, a *sparse.CSR, opts Options) float64 {
	var allocs float64
	dist.Run(1, dist.DefaultConfig(), func(c *dist.Comm) {
		st, err := newQBState(c, a, opts)
		if err != nil {
			t.Error(err)
			return
		}
		for iter := 1; ; iter++ {
			if st.step(iter) {
				break
			}
		}
		rewindK := st.opts.BlockSize * 2
		e0 := st.res.NormA * st.res.NormA
		allocs = testing.AllocsPerRun(20, func() {
			st.kCur = rewindK
			st.e = e0
			st.res.ErrHistory = st.res.ErrHistory[:0]
			st.res.TimeHistory = st.res.TimeHistory[:0]
			if done := st.step(2); done {
				t.Error("step terminated during steady-state measurement")
			}
		})
	})
	return allocs
}

// A steady-state RandQB_EI block iteration at P = 1 must not allocate:
// every intermediate lives in a grow-only store or workspace, and the
// virtual-clock charges of a warm one-rank Comm are free. The dimensions
// keep all kernels on their serial paths (spmm guard nnz·k, gemm guard
// m·k·n, QR unblocked below qrBlockedMinK) so no worker closures are
// spawned either.
func TestStepAllocFree(t *testing.T) {
	a := allocTestMatrix(80, 60, 4, 5)
	if allocs := stepAllocs(t, a, Options{BlockSize: 6, Power: 1, MaxRank: 18, Seed: 3}); allocs != 0 {
		t.Fatalf("steady-state qb step allocates %v per run, want 0", allocs)
	}
}

// The same property for the SparseSign sketch driving the iteration: the
// structured sketch path must stay allocation-free end to end.
func TestStepAllocFreeSparseSign(t *testing.T) {
	a := allocTestMatrix(80, 60, 4, 7)
	opts := Options{
		BlockSize: 6, Power: 1, MaxRank: 18, Seed: 3,
		Sketch: sketch.SparseSign, SketchNNZ: 3,
	}
	if allocs := stepAllocs(t, a, opts); allocs != 0 {
		t.Fatalf("steady-state qb step (sparsesign) allocates %v per run, want 0", allocs)
	}
}

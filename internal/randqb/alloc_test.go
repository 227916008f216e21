package randqb

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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
	mustRun(t, 1, dist.DefaultConfig(), func(c *dist.Comm) {
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

// solveBytes returns the bytes one p-rank FactorDist run allocates, the
// world's own setup included. A first run warms the kernel scratch
// pools; GOMAXPROCS is pinned to 1 and the collector is off while
// measuring, so the count repeats on any host.
func solveBytes(t *testing.T, a *sparse.CSR, p int, opts Options) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("byte counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() error {
		_, err := dist.RunE(p, dist.DefaultConfig(), func(c *dist.Comm) error {
			_, err := FactorDist(c, a, opts, nil)
			return err
		})
		return err
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// At P = 2 the reductions sum into rank-owned buffers and the
// allgathers copy straight into one matrix, so beyond two one-rank runs
// the power-scheme solve allocates at most 10× its factor bytes (the
// TSQR tree and the replicated B account for most of it). Cloning every
// reduced product and re-stacking every allgather costs about 15×.
func TestFactorDistBytesP2(t *testing.T) {
	const m, n, kMax = 300, 240, 64
	a := randSparse(m, n, 0.05, 31)
	opts := Options{BlockSize: 4, Tol: 1e-12, MaxRank: kMax, Power: 1, Seed: 9}
	one := solveBytes(t, a, 1, opts)
	two := solveBytes(t, a, 2, opts)
	factors := 8.0 * (m + n) * kMax
	if extra := two - 2*one; extra > 10*factors {
		t.Fatalf("P=2 allocates %.0f B beyond two one-rank runs (%.0f B each), over 10× the %.0f factor bytes", extra, one, factors)
	}
}

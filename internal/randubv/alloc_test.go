package randubv

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

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
			_, err := FactorDist(c, a, opts)
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

// rankCappedOpts never converges, so runs differ only in how far the
// recurrence goes before MaxRank stops it.
func rankCappedOpts(maxRank int) Options {
	return Options{BlockSize: 4, Tol: 1e-12, MaxRank: maxRank, Seed: 9}
}

// RandUBV's memory must be linear in the rank it reaches: the V store
// doubles and U is assembled once, so twice the rank costs about twice
// the bytes. Re-stacking U and V every iteration costs K²(m+n)/k, over
// 3× here.
func TestFactorBytesLinearInRank(t *testing.T) {
	a := randSparse(300, 240, 0.05, 31)
	const k = 48
	one := solveBytes(t, a, 1, rankCappedOpts(k))
	two := solveBytes(t, a, 1, rankCappedOpts(2*k))
	if two > 2.5*one {
		t.Fatalf("MaxRank %d→%d grew bytes %.0f→%.0f (%.2f×), want ≤ 2.5×", k, 2*k, one, two, two/one)
	}
}

// At P = 2 both ranks replicate the one-rank run, and the collectives
// themselves move rank-owned buffers: beyond the two replicas the run
// may allocate at most twice its factor bytes. Cloning every gathered
// or broadcast product and re-stacking every allgather costs about 5×.
func TestFactorDistBytesP2(t *testing.T) {
	const m, n, kMax = 300, 240, 64
	a := randSparse(m, n, 0.05, 31)
	opts := rankCappedOpts(kMax)
	one := solveBytes(t, a, 1, opts)
	two := solveBytes(t, a, 2, opts)
	factors := 8.0 * (m + n) * kMax
	if extra := two - 2*one; extra > 2*factors {
		t.Fatalf("P=2 allocates %.0f B beyond two one-rank runs (%.0f B each), over 2× the %.0f factor bytes", extra, one, factors)
	}
}

// A warm RandUBV iteration allocates only what it keeps: the U block
// (m×uw), R_i (uw×vw) and S_{i+1} (vw'×uw). The test runs a one-rank
// solve to its rank cap so every buffer, workspace and store has grown,
// rewinds the iterates to the end of iteration 2 and measures iteration
// 3 repeatedly. Factoring with mat.QR instead clones both panels and
// forms two fresh thin Qs, over 2× the kept bytes.
func TestStepBytesKeptOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const m, n = 300, 240
	a := randSparse(m, n, 0.05, 31)
	mustRun(t, 1, dist.DefaultConfig(), func(c *dist.Comm) {
		st, err := newUBVState(c, a, rankCappedOpts(64))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := st.begin(); err != nil {
			t.Error(err)
			return
		}
		for iter := 1; iter <= 2; iter++ {
			if st.step(iter) {
				t.Error("solve ended before iteration 3")
				return
			}
		}
		nb, ku, cols, vw, e := len(st.blocks), st.ku, st.vAll.cols, st.vi.Cols, st.e
		nh := len(st.res.ErrHistory)
		for iter := 3; !st.step(iter); iter++ {
		}
		rewind := func() {
			st.blocks, st.ku, st.vAll.cols, st.e = st.blocks[:nb], ku, cols, e
			st.vi = &mat.Dense{Rows: n, Cols: vw, Stride: st.vAll.capV, Data: st.vAll.data[cols-vw:]}
			st.res.ErrHistory = st.res.ErrHistory[:nh]
		}
		const runs = 10
		var kept, total uint64
		for r := 0; r < runs; r++ {
			rewind()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if st.step(3) {
				t.Error("iteration 3 ended the solve")
				return
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
			blk := st.blocks[len(st.blocks)-1]
			kept += 8 * uint64(blk.u.Rows*blk.u.Cols+blk.r.Rows*blk.r.Cols+blk.s.Rows*blk.s.Cols)
		}
		// Slack for the three matrix headers and size-class rounding.
		if perIter := total / runs; perIter > kept/runs+1024 {
			t.Errorf("warm iteration allocates %d B, want ≤ %d B kept + 1 KiB", perIter, kept/runs)
		}
	})
}

package lucrtp

import (
	"math"
	"slices"
	"testing"

	"sparselr/internal/dist"
)

// mustRun runs body on p ranks through dist.RunE and fails tb on a run
// error.
func mustRun(tb testing.TB, p int, cfg dist.Config, body func(*dist.Comm)) *dist.Result {
	tb.Helper()
	res, err := dist.RunE(p, cfg, func(c *dist.Comm) error { body(c); return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestFactorDistMatchesSequential(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	opts := Options{BlockSize: 8, Tol: 1e-3}
	seq, err := Factor(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		var got *Result
		mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
			r, err := FactorDist(c, a, opts)
			if err != nil {
				t.Errorf("p=%d: %v", p, err)
				return
			}
			if c.Rank() == 0 {
				got = r
			}
		})
		if got == nil {
			t.Fatalf("p=%d: no result", p)
		}
		if !got.Converged {
			t.Fatalf("p=%d did not converge", p)
		}
		if got.Rank != seq.Rank || got.Iters != seq.Iters {
			t.Fatalf("p=%d: rank/iters %d/%d vs sequential %d/%d", p, got.Rank, got.Iters, seq.Rank, seq.Iters)
		}
		if math.Abs(got.ErrIndicator-seq.ErrIndicator) > 1e-9*seq.NormA {
			t.Fatalf("p=%d: indicator %v vs %v", p, got.ErrIndicator, seq.ErrIndicator)
		}
		if te := trueError(a, got); math.Abs(te-got.ErrIndicator) > 1e-8*got.NormA {
			t.Fatalf("p=%d: distributed factors wrong (true error %v vs indicator %v)", p, te, got.ErrIndicator)
		}
	}
}

func TestFactorDistAllRanksAgree(t *testing.T) {
	a := decayMatrix(40, 40, 20, 0.6, 102)
	p := 4
	results := make([]*Result, p)
	mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 4, Tol: 1e-2})
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		results[c.Rank()] = r
	})
	for r := 1; r < p; r++ {
		if results[r].Rank != results[0].Rank {
			t.Fatal("ranks disagree on rank")
		}
		if !results[r].L.Equal(results[0].L, 0) || !results[r].U.Equal(results[0].U, 0) {
			t.Fatal("ranks disagree on factors")
		}
	}
}

func TestFactorDistILUT(t *testing.T) {
	a := decayMatrix(80, 80, 50, 0.8, 103)
	tol := 1e-2
	var got *Result
	mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, Threshold: AutoThreshold, EstIters: 6})
		if err != nil {
			t.Errorf("%v", err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("distributed ILUT did not converge")
	}
	te := trueError(a, got)
	if te >= 1.05*tol*got.NormA {
		t.Fatalf("true error %v above bound", te)
	}
}

func TestFactorDistKernelBreakdown(t *testing.T) {
	a := randSparse(80, 80, 0.08, 104)
	res := mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 1e-2}); err != nil {
			t.Error(err)
		}
	})
	for _, kernel := range []string{"colQR_TP/local", "rowQR_TP/local", "panelQR", "rowPerm", "triSolve", "schur"} {
		if res.MaxKernels()[kernel] <= 0 {
			t.Errorf("kernel %q has no attributed time", kernel)
		}
	}
	if res.MaxTime() <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}

func TestFactorDistVirtualSpeedup(t *testing.T) {
	// More ranks should reduce the modeled runtime for a reasonably
	// large problem (strong scaling regime of Fig 4 before the global
	// reduction dominates).
	a := randSparse(160, 160, 0.06, 105)
	timeFor := func(p int) float64 {
		res := mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
			if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 1e-2}); err != nil {
				t.Error(err)
			}
		})
		return res.MaxTime()
	}
	t1 := timeFor(1)
	t4 := timeFor(4)
	if t4 >= t1 {
		t.Fatalf("no modeled speedup: t1=%v t4=%v", t1, t4)
	}
}

func TestFactorDistColumnDiscarding(t *testing.T) {
	a := decayMatrix(80, 80, 25, 0.6, 140)
	tol := 1e-2
	var got *Result
	mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, DiscardTol: 1})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("discarding dist run did not converge")
	}
	if te := trueError(a, got); te >= 1.01*tol*got.NormA {
		t.Fatalf("true error %v above bound", te)
	}
	if got.DiscardedCols == 0 {
		t.Fatal("expected pruned candidates on the decay matrix")
	}
}

// TestFactorDistReorderEvery checks that ReorderEvery re-applies COLAMD
// to the Schur complement at P>1 too: rank 0 charges colamd once per
// iteration, and the factors differ from ReorderFirst's as they do in
// the sequential runs.
func TestFactorDistReorderEvery(t *testing.T) {
	a := randSparse(80, 80, 0.06, 106)
	opts := func(mode ReorderMode) Options { return Options{BlockSize: 8, Tol: 1e-2, Reorder: mode} }
	seqFirst, err := Factor(a, opts(ReorderFirst))
	if err != nil {
		t.Fatal(err)
	}
	seqEvery, err := Factor(a, opts(ReorderEvery))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(seqFirst.ColPerm, seqEvery.ColPerm) {
		t.Fatal("test matrix does not separate the reorder modes sequentially")
	}
	run := func(mode ReorderMode) (*Result, int) {
		tr := dist.NewTrace()
		cfg := dist.DefaultConfig()
		cfg.Tracer = tr
		var got *Result
		mustRun(t, 2, cfg, func(c *dist.Comm) {
			r, err := FactorDist(c, a, opts(mode))
			if err != nil {
				t.Errorf("mode %v: %v", mode, err)
				return
			}
			if c.Rank() == 0 {
				got = r
			}
		})
		if got == nil {
			t.Fatalf("mode %v: no result", mode)
		}
		charges := 0
		for _, e := range tr.Events(0) {
			if e.Kind == dist.EvCompute && e.Name == "colamd" {
				charges++
			}
		}
		return got, charges
	}
	first, firstCharges := run(ReorderFirst)
	every, everyCharges := run(ReorderEvery)
	if firstCharges != 1 {
		t.Fatalf("ReorderFirst charged colamd %d times, want 1", firstCharges)
	}
	if every.Iters < 2 || everyCharges != every.Iters {
		t.Fatalf("ReorderEvery charged colamd %d times over %d iterations, want one per iteration", everyCharges, every.Iters)
	}
	if slices.Equal(first.ColPerm, every.ColPerm) && first.U.Equal(every.U, 0) {
		t.Fatal("ReorderEvery at P=2 produced ReorderFirst's factors")
	}
	if te := trueError(a, every); math.Abs(te-every.ErrIndicator) > 1e-8*every.NormA {
		t.Fatalf("ReorderEvery factors wrong: true error %v vs indicator %v", te, every.ErrIndicator)
	}
}

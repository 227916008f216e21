package randqb

import (
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
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
	a := decayMatrix(60, 50, 30, 0.6, 31)
	opts := Options{BlockSize: 8, Tol: 1e-3, Power: 1, Seed: 99}
	seq, err := Factor(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		var got *Result
		mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
			r, err := FactorDist(c, a, opts, nil)
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
		// Factor is this body on one rank: bit for bit the same run.
		if p == 1 && (!got.Q.Equal(seq.Q, 0) || !got.B.Equal(seq.B, 0)) {
			t.Fatal("p=1: FactorDist differs from Factor")
		}
		if got.Rank != seq.Rank || got.Iters != seq.Iters {
			t.Fatalf("p=%d: rank/iters %d/%d vs %d/%d", p, got.Rank, got.Iters, seq.Rank, seq.Iters)
		}
		// The distributed partial sums reassociate floating-point
		// additions, and near-tie pivots in the orthogonalization may
		// pick a different (equivalent) basis — compare the
		// approximation Q·B, which must agree to roundoff.
		tol := 1e-8 * seq.NormA
		if !mat.Mul(got.Q, got.B).Equal(mat.Mul(seq.Q, seq.B), tol) {
			t.Fatalf("p=%d: distributed approximation differs from sequential beyond roundoff", p)
		}
		if d := got.ErrIndicator - seq.ErrIndicator; d > tol || d < -tol {
			t.Fatalf("p=%d: indicator %v vs %v", p, got.ErrIndicator, seq.ErrIndicator)
		}
	}
}

func TestFactorDistKernels(t *testing.T) {
	a := randSparse(80, 80, 0.1, 32)
	res := mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 1e-1, Power: 2, Seed: 5}, nil); err != nil {
			t.Error(err)
		}
	})
	for _, kernel := range []string{"SpMM", "orth/TSQR", "GEMM", "Bupdate"} {
		if res.MaxKernels()[kernel] <= 0 {
			t.Errorf("kernel %q missing from the breakdown", kernel)
		}
	}
}

func TestFactorDistScalesBetterThanDeterministicStall(t *testing.T) {
	// RandQB's virtual time should keep dropping as P grows over this
	// range (Fig 4: the randomized method exhibits better scalability).
	a := randSparse(160, 160, 0.08, 33)
	timeFor := func(p int) float64 {
		res := mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
			if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 2e-1, Seed: 6}, nil); err != nil {
				t.Error(err)
			}
		})
		return res.MaxTime()
	}
	t1, t4, t16 := timeFor(1), timeFor(4), timeFor(16)
	// t16 may sit past the communication crossover on this small
	// problem; both parallel runs must still beat the sequential one.
	if !(t4 < t1 && t16 < t1) {
		t.Fatalf("expected speedup over P=1: %v %v %v", t1, t4, t16)
	}
}

func TestFactorDistILUTComparableQuality(t *testing.T) {
	a := decayMatrix(70, 70, 35, 0.75, 34)
	tol := 1e-2
	var got *Result
	mustRun(t, 2, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, Seed: 7}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil || !got.Converged {
		t.Fatal("did not converge")
	}
	if te := a.ResidualFrobNorm(got.Q, got.B); te >= 1.01*tol*got.NormA {
		t.Fatalf("true error %v", te)
	}
}

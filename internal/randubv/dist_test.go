package randubv

import (
	"math"
	"testing"

	"sparselr/internal/dist"
)

func TestFactorDistMatchesSequential(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 21)
	opts := Options{BlockSize: 8, Tol: 1e-3, Seed: 22}
	seq, err := Factor(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		var got *Result
		dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
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
		// Factor is this body on one rank: bit for bit the same run.
		if p == 1 && (!got.U.Equal(seq.U, 0) || !got.B.Equal(seq.B, 0) || !got.V.Equal(seq.V, 0)) {
			t.Fatal("p=1: FactorDist differs from Factor")
		}
		if got.Rank != seq.Rank || got.Iters != seq.Iters {
			t.Fatalf("p=%d: rank/iters %d/%d vs %d/%d", p, got.Rank, got.Iters, seq.Rank, seq.Iters)
		}
		// The approximation (not the individual factors, which may pick
		// equivalent bases) must agree to roundoff.
		diff := seq.Approx()
		diff.Sub(got.Approx())
		if diff.FrobNorm() > 1e-8*seq.NormA {
			t.Fatalf("p=%d: approximations diverge by %v", p, diff.FrobNorm())
		}
	}
}

func TestFactorDistConvergesAndVerifies(t *testing.T) {
	a := decayMatrix(70, 70, 40, 0.75, 23)
	tol := 1e-2
	var got *Result
	res := dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 8, Tol: tol, Seed: 24})
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
	if te := TrueError(a, got); te >= 1.01*tol*got.NormA {
		t.Fatalf("true error %v", te)
	}
	for _, kernel := range []string{"SpMM", "orth/TSQR", "Bupdate"} {
		if res.MaxKernel(kernel) <= 0 {
			t.Errorf("kernel %q missing", kernel)
		}
	}
}

func TestFactorDistShowsModeledSpeedup(t *testing.T) {
	a := randSparse(150, 150, 0.08, 25)
	timeFor := func(p int) float64 {
		res := dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
			if _, err := FactorDist(c, a, Options{BlockSize: 8, Tol: 2e-1, Seed: 26}); err != nil {
				t.Error(err)
			}
		})
		return res.MaxTime()
	}
	t1, t4 := timeFor(1), timeFor(4)
	if t4 >= t1 {
		t.Fatalf("no modeled speedup: t1=%v t4=%v", t1, t4)
	}
}

func TestFactorDistIndicatorAgreesWithTruth(t *testing.T) {
	a := decayMatrix(50, 60, 25, 0.65, 27)
	var got *Result
	dist.Run(2, dist.DefaultConfig(), func(c *dist.Comm) {
		r, err := FactorDist(c, a, Options{BlockSize: 4, Tol: 1e-4, Seed: 28})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			got = r
		}
	})
	if got == nil {
		t.Fatal("no result")
	}
	te := TrueError(a, got)
	if math.Abs(te-got.ErrIndicator) > 1e-6*got.NormA {
		t.Fatalf("indicator %v vs true error %v", got.ErrIndicator, te)
	}
}

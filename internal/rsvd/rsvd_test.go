package rsvd

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/randqb"
	"sparselr/internal/sparse"
)

// factor runs Factor on a one-rank world, as core.Approximate does.
func factor(a *sparse.CSR, opts Options) (*Result, error) {
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (*Result, error) {
		return Factor(c, a, opts)
	})
	return r, err
}

func decayMatrix(m, n, r int, rate float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	sigma := 1.0
	for t := 0; t < r; t++ {
		ui := rng.Perm(m)[:3+rng.Intn(3)]
		vi := rng.Perm(n)[:3+rng.Intn(3)]
		uv := make([]float64, len(ui))
		vv := make([]float64, len(vi))
		for x := range uv {
			uv[x] = 0.5 + rng.Float64()
		}
		for x := range vv {
			vv[x] = 0.5 + rng.Float64()
		}
		for x, i := range ui {
			for y, j := range vi {
				b.Add(i, j, sigma*uv[x]*vv[y])
			}
		}
		sigma *= rate
	}
	return b.ToCSR()
}

func TestFactorConverges(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 1)
	tol := 1e-3
	res, err := factor(a, Options{InitialRank: 4, Tol: tol, Power: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	svt := res.V.T() // diag(S)·Vᵀ
	for j, s := range res.S {
		row := svt.Row(j)
		for i := range row {
			row[i] *= s
		}
	}
	if te := a.ResidualFrobNorm(res.U, svt); te >= 1.01*tol*res.NormA {
		t.Fatalf("true error %v above bound", te)
	}
	if res.Restarts < 2 {
		t.Fatalf("starting at k=4 should need restarts, got %d", res.Restarts)
	}
}

func TestRankHistoryDoubles(t *testing.T) {
	a := decayMatrix(60, 60, 40, 0.8, 3)
	res, err := factor(a, Options{InitialRank: 4, Tol: 1e-4, Power: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RankHistory); i++ {
		if res.RankHistory[i] != res.RankHistory[i-1]*2 && res.RankHistory[i] != 60 {
			t.Fatalf("rank history should double (or clamp): %v", res.RankHistory)
		}
	}
}

func TestTrimMinimizesRank(t *testing.T) {
	a := decayMatrix(50, 50, 25, 0.6, 5)
	tol := 1e-2
	res, err := factor(a, Options{InitialRank: 32, Tol: tol, Power: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("should converge in one pass at k=32")
	}
	// The trim must keep the result feasible...
	svt := res.V.T() // diag(S)·Vᵀ
	for j, s := range res.S {
		row := svt.Row(j)
		for i := range row {
			row[i] *= s
		}
	}
	if te := a.ResidualFrobNorm(res.U, svt); te >= 1.01*tol*res.NormA {
		t.Fatalf("trimmed factors violate the tolerance: %v", te)
	}
	// ...and be much smaller than the 32 requested columns (the matrix
	// reaches 1e-2 at a modest rank).
	if res.Rank >= 32 {
		t.Fatalf("trim kept rank %d", res.Rank)
	}
}

func TestCostlyComparedToIncrementalQB(t *testing.T) {
	// The restart loop repeats full sketches; RandQB_EI reaches the same
	// tolerance with at most the same final rank (both rank-revealing),
	// while RSVD discards work at each restart — verify the restart
	// count is > 1 where QB converged incrementally.
	a := decayMatrix(70, 70, 45, 0.8, 7)
	tol := 1e-3
	r, err := factor(a, Options{InitialRank: 4, Tol: tol, Power: 0, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := randqb.Factor(a, randqb.Options{BlockSize: 4, Tol: tol, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || !qb.Converged {
		t.Fatal("both should converge")
	}
	if r.Restarts <= 1 {
		t.Fatal("expected multiple restarts from k=4")
	}
}

func TestSingularValueAccuracy(t *testing.T) {
	a := decayMatrix(40, 40, 12, 0.7, 9)
	res, err := factor(a, Options{InitialRank: 16, Tol: 1e-8, Power: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// With power iterations the leading singular values match the
	// spectrum closely.
	sv := res.S
	for i := 1; i < len(sv); i++ {
		if sv[i] > sv[i-1]*(1+1e-12) {
			t.Fatal("singular values not descending")
		}
	}
	if math.Abs(sv[0]-largestSV(a))/largestSV(a) > 1e-6 {
		t.Fatalf("σ₁ = %v vs true %v", sv[0], largestSV(a))
	}
}

func largestSV(a *sparse.CSR) float64 {
	// Power iteration on AᵀA.
	n := a.Cols
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	at := a.Transpose()
	var lam float64
	for it := 0; it < 200; it++ {
		y := at.MulVec(a.MulVec(x))
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		lam = norm
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	return math.Sqrt(lam)
}

func TestMaxRankCapStopsLoop(t *testing.T) {
	a := decayMatrix(50, 50, 40, 0.95, 11)
	res, err := factor(a, Options{InitialRank: 4, Tol: 1e-14, MaxRank: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 16 {
		t.Fatalf("rank %d above cap", res.Rank)
	}
	if res.Converged {
		t.Fatal("cannot converge to 1e-14 at rank 16 on this matrix")
	}
}

func TestEmptyMatrix(t *testing.T) {
	if _, err := factor(sparse.NewCSR(0, 2), Options{Tol: 1e-2}); err == nil {
		t.Fatal("expected error")
	}
}

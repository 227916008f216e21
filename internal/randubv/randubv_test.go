package randubv

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/sparse"
)

func randSparse(m, n int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.ToCSR()
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

func orthErr(q *mat.Dense) float64 {
	g := mat.MulT(q, q)
	g.Sub(mat.Identity(q.Cols))
	return g.InfNorm()
}

func TestFactorConvergesIndicatorAgrees(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 1)
	tol := 1e-3
	res, err := Factor(a, Options{BlockSize: 8, Tol: tol, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	te := a.ResidualFrobNorm(mat.Mul(res.U, res.B), res.V.T())
	if te >= 1.01*tol*res.NormA {
		t.Fatalf("true error %v above τ‖A‖", te)
	}
	if math.Abs(te-res.ErrIndicator) > 1e-6*res.NormA {
		t.Fatalf("indicator %v vs true error %v", res.ErrIndicator, te)
	}
}

func TestFactorsOrthonormal(t *testing.T) {
	a := randSparse(40, 35, 0.3, 3)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := orthErr(res.U); e > 1e-10 {
		t.Fatalf("U orthogonality loss %v", e)
	}
	if e := orthErr(res.V); e > 1e-10 {
		t.Fatalf("V orthogonality loss %v", e)
	}
}

func TestBIsBlockBidiagonal(t *testing.T) {
	a := randSparse(50, 45, 0.25, 5)
	k := 4
	res, err := Factor(a, Options{BlockSize: k, Tol: 1e-3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b := res.B
	// Entries strictly below the diagonal blocks, and beyond the first
	// superdiagonal block band, must be zero.
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			blockI, blockJ := i/k, j/k
			if blockJ < blockI || blockJ > blockI+1 {
				if b.At(i, j) != 0 {
					t.Fatalf("B(%d,%d) = %v outside the bidiagonal band", i, j, b.At(i, j))
				}
			}
		}
	}
}

func TestExactRankStops(t *testing.T) {
	a := decayMatrix(40, 40, 10, 0.9, 7)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 24 {
		t.Fatalf("rank %d far above true rank 10", res.Rank)
	}
	if te := a.ResidualFrobNorm(mat.Mul(res.U, res.B), res.V.T()); te > 1e-7*res.NormA {
		t.Fatalf("true error %v should be negligible", te)
	}
}

func TestUBVCompetitiveWithQBp0(t *testing.T) {
	// §VI-B: RandUBV performs roughly the same work as RandQB_EI with
	// p = 0 and the same k, often in fewer iterations.
	a := decayMatrix(80, 80, 50, 0.8, 9)
	tol := 1e-2
	ubv, err := Factor(a, Options{BlockSize: 8, Tol: tol, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := randqb.Factor(a, randqb.Options{BlockSize: 8, Tol: tol, Power: 0, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !ubv.Converged || !qb.Converged {
		t.Fatal("both methods should converge")
	}
	if ubv.Iters > qb.Iters+2 {
		t.Fatalf("UBV took %d iterations vs QB's %d — should be comparable or fewer", ubv.Iters, qb.Iters)
	}
}

func TestErrHistoryNonIncreasing(t *testing.T) {
	a := decayMatrix(50, 50, 30, 0.7, 11)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ErrHistory); i++ {
		if res.ErrHistory[i] > res.ErrHistory[i-1]+1e-12 {
			t.Fatalf("indicator increased: %v", res.ErrHistory)
		}
	}
}

func TestMaxRankCap(t *testing.T) {
	a := randSparse(60, 60, 0.3, 13)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-12, MaxRank: 16, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 16 {
		t.Fatalf("rank %d exceeds cap 16", res.Rank)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := randSparse(40, 40, 0.3, 15)
	r1, _ := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Seed: 42})
	r2, _ := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Seed: 42})
	if r1.Rank != r2.Rank || r1.ErrIndicator != r2.ErrIndicator {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestEmptyMatrix(t *testing.T) {
	if _, err := Factor(sparse.NewCSR(3, 0), Options{Tol: 1e-2}); err == nil {
		t.Fatal("expected an error for an empty matrix")
	}
}

func TestWideAndTall(t *testing.T) {
	for _, dims := range [][2]int{{70, 30}, {30, 70}} {
		a := decayMatrix(dims[0], dims[1], 15, 0.6, int64(16+dims[0]))
		res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-3, Seed: 17})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", dims)
		}
		if te := a.ResidualFrobNorm(mat.Mul(res.U, res.B), res.V.T()); te >= 1.01e-3*res.NormA {
			t.Fatalf("%v true error %v", dims, te)
		}
	}
}

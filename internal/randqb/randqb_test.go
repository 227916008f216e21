package randqb

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/mat"
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

func TestFactorConvergesAndIndicatorAgrees(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 1)
	tol := 1e-3
	res, err := Factor(a, Options{BlockSize: 8, Tol: tol, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	te := a.ResidualFrobNorm(res.Q, res.B)
	if te >= tol*res.NormA*1.01 {
		t.Fatalf("true error %v above τ‖A‖ %v", te, tol*res.NormA)
	}
	// Indicator (eq 4) matches the true error to high relative accuracy.
	if math.Abs(te-res.ErrIndicator) > 1e-6*res.NormA {
		t.Fatalf("indicator %v vs true error %v", res.ErrIndicator, te)
	}
}

func TestQOrthonormal(t *testing.T) {
	a := randSparse(40, 30, 0.3, 2)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Q_K only grows by appended blocks, so its first block is the basis
	// after iteration 1.
	first, last := orthLoss(res.Q.View(0, 0, res.Q.Rows, 4)), orthLoss(res.Q)
	if last > 1e-12 {
		t.Fatalf("Q lost orthonormality: %v", last)
	}
	if first <= 0 || last < first*0.01 {
		t.Fatalf("orthogonality probes look wrong: first %v last %v", first, last)
	}
}

// orthLoss is ‖QᵀQ − I‖∞, the loss of orthogonality §VI-B tracks.
func orthLoss(q *mat.Dense) float64 {
	g := mat.MulT(q, q)
	g.Sub(mat.Identity(q.Cols))
	return g.InfNorm()
}

func TestPowerSchemeReducesIterations(t *testing.T) {
	// On a slowly-decaying spectrum the power scheme should not need
	// more iterations than p=0 (§VI-B: p=1 gives the best trade-off).
	a := randSparse(80, 70, 0.2, 4)
	tol := 0.4
	r0, err := Factor(a, Options{BlockSize: 8, Tol: tol, Power: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Factor(a, Options{BlockSize: 8, Tol: tol, Power: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Factor(a, Options{BlockSize: 8, Tol: tol, Power: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !r0.Converged || !r1.Converged || !r2.Converged {
		t.Fatal("all power settings should converge")
	}
	if r1.Iters > r0.Iters || r2.Iters > r1.Iters {
		t.Fatalf("iterations should not increase with p: %d %d %d", r0.Iters, r1.Iters, r2.Iters)
	}
}

func TestErrHistoryDecreasing(t *testing.T) {
	a := decayMatrix(50, 50, 30, 0.7, 6)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ErrHistory); i++ {
		if res.ErrHistory[i] > res.ErrHistory[i-1]+1e-12 {
			t.Fatalf("indicator must be non-increasing: %v", res.ErrHistory)
		}
	}
}

func TestExactRankTermination(t *testing.T) {
	// Rank-10 matrix: once the range is captured the sketch brings no
	// new directions and the method stops.
	a := decayMatrix(40, 40, 10, 0.9, 9)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 24 {
		t.Fatalf("rank %d far above true rank 10", res.Rank)
	}
	if te := a.ResidualFrobNorm(res.Q, res.B); te > 1e-8*res.NormA {
		t.Fatalf("true error %v should be negligible", te)
	}
}

func TestMaxRankCap(t *testing.T) {
	a := randSparse(50, 50, 0.3, 13)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-12, MaxRank: 16, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 16 {
		t.Fatalf("rank %d exceeds cap", res.Rank)
	}
}

func TestMinRankEstimate(t *testing.T) {
	a := decayMatrix(60, 60, 40, 0.75, 15)
	tol := 1e-2
	res, err := Factor(a, Options{BlockSize: 8, Tol: tol / 10, Power: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	est := res.MinRank(tol)
	// Reference: optimal rank from the dense SVD.
	sv := mat.SingularValues(a.ToDense())
	var tail float64
	opt := len(sv)
	for r := len(sv) - 1; r >= 0; r-- {
		tail += sv[r] * sv[r]
		if math.Sqrt(tail) >= tol*res.NormA {
			opt = r + 1
			break
		}
	}
	if est < opt {
		t.Fatalf("estimated min rank %d below optimal %d", est, opt)
	}
	if est > opt+6 {
		t.Fatalf("estimated min rank %d far above optimal %d (Fig 2's 'reasonable approximation')", est, opt)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := randSparse(40, 40, 0.3, 17)
	r1, _ := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Seed: 42})
	r2, _ := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Seed: 42})
	if r1.Rank != r2.Rank || r1.ErrIndicator != r2.ErrIndicator {
		t.Fatal("same seed must reproduce the run")
	}
	if !r1.Q.Equal(r2.Q, 0) || !r1.B.Equal(r2.B, 0) {
		t.Fatal("factors must be identical for the same seed")
	}
}

func TestEmptyMatrix(t *testing.T) {
	if _, err := Factor(sparse.NewCSR(0, 4), Options{Tol: 1e-2}); err == nil {
		t.Fatal("expected an error for an empty matrix")
	}
}

func TestBadPowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p = 5")
		}
	}()
	a := randSparse(10, 10, 0.5, 18)
	_, _ = Factor(a, Options{BlockSize: 2, Tol: 1e-2, Power: 5})
}

func TestWideMatrix(t *testing.T) {
	a := decayMatrix(30, 90, 15, 0.6, 19)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-3, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("wide matrix did not converge")
	}
	if te := a.ResidualFrobNorm(res.Q, res.B); te >= 1.01e-3*res.NormA {
		t.Fatalf("true error %v", te)
	}
}

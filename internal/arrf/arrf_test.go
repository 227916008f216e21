package arrf

import (
	"math/rand"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
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

func TestFactorMeetsTarget(t *testing.T) {
	a := decayMatrix(60, 50, 25, 0.6, 1)
	tol := 1e-3
	res, err := factor(a, Options{Tol: tol, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// The probabilistic bound targets the spectral norm of the residual;
	// the Frobenius residual is within √rank of it — verify the exact
	// Frobenius residual is in a credible range of the target.
	if rn := a.ResidualFrobNorm(res.Q, a.MulTDense(res.Q).T()); rn > tol*res.NormA {
		// The bound is an overestimate with high probability, so the
		// exact residual should sit below the target.
		t.Fatalf("residual %v above target %v", rn, tol*res.NormA)
	}
}

func TestBasisOrthonormal(t *testing.T) {
	a := decayMatrix(40, 40, 15, 0.7, 3)
	res, err := factor(a, Options{Tol: 1e-4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank == 0 {
		t.Fatal("empty basis")
	}
	g := mat.MulT(res.Q, res.Q)
	g.Sub(mat.Identity(res.Rank))
	if g.InfNorm() > 1e-10 {
		t.Fatalf("basis orthogonality loss %v", g.InfNorm())
	}
}

func TestRankTracksDifficulty(t *testing.T) {
	a := decayMatrix(60, 60, 40, 0.8, 5)
	loose, err := factor(a, Options{Tol: 1e-1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := factor(a, Options{Tol: 1e-4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Rank <= loose.Rank {
		t.Fatalf("tighter tolerance should need more basis vectors: %d vs %d", tight.Rank, loose.Rank)
	}
}

func TestExactRankStops(t *testing.T) {
	a := decayMatrix(40, 40, 8, 0.9, 7)
	res, err := factor(a, Options{Tol: 1e-10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive window needs ~Window probes of slack, but the basis
	// cannot wildly exceed the true rank 8.
	if res.Rank > 16 {
		t.Fatalf("rank %d far above true rank 8", res.Rank)
	}
}

func TestMaxRankCap(t *testing.T) {
	a := decayMatrix(50, 50, 40, 0.95, 9)
	res, err := factor(a, Options{Tol: 1e-14, MaxRank: 12, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 12 {
		t.Fatalf("rank %d above cap", res.Rank)
	}
}

func TestProbesAccounting(t *testing.T) {
	a := decayMatrix(40, 40, 10, 0.8, 11)
	res, err := factor(a, Options{Tol: 1e-6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Every basis vector consumes one replacement probe on top of the
	// initial window.
	if res.Probes < res.Rank+probeWindow {
		t.Fatalf("probe accounting wrong: %d probes for rank %d", res.Probes, res.Rank)
	}
}

func TestEmptyMatrix(t *testing.T) {
	if _, err := factor(sparse.NewCSR(3, 0), Options{Tol: 1e-2}); err == nil {
		t.Fatal("expected error")
	}
}

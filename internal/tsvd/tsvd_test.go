package tsvd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// oneRank runs an entry point on a one-rank world, as core.Approximate
// does.
func oneRank(body func(*dist.Comm) (*Result, error)) (*Result, error) {
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), body)
	return r, err
}

func fixedRank(a *sparse.CSR, k int) (*Result, error) {
	return oneRank(func(c *dist.Comm) (*Result, error) { return FixedRank(c, a, k) })
}

func fixedPrecision(a *sparse.CSR, tol float64) (*Result, error) {
	return oneRank(func(c *dist.Comm) (*Result, error) { return FixedPrecision(c, a, tol) })
}

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

func TestFixedRankErrorMatchesTail(t *testing.T) {
	a := randSparse(20, 15, 0.5, 1)
	res, err := fixedRank(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	us := res.U.Clone() // U·diag(S)
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j, s := range res.S {
			row[j] *= s
		}
	}
	diff := a.ToDense()
	diff.Sub(mat.MulBT(us, res.V))
	if math.Abs(diff.FrobNorm()-res.TailNorm) > 1e-9*res.NormA {
		t.Fatalf("true error %v vs tail %v", diff.FrobNorm(), res.TailNorm)
	}
}

func TestFixedPrecisionMeetsTolerance(t *testing.T) {
	f := func(seed int64) bool {
		a := randSparse(15, 12, 0.5, seed)
		if a.NNZ() == 0 {
			return true
		}
		tol := 0.3
		res, err := fixedPrecision(a, tol)
		if err != nil {
			return false
		}
		return res.TailNorm < tol*res.NormA
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedPrecisionIsMinimal(t *testing.T) {
	a := randSparse(20, 20, 0.5, 3)
	tol := 0.2
	res, err := fixedPrecision(a, tol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank == 0 {
		t.Fatal("rank 0 cannot satisfy a 0.2 tolerance on a nonzero matrix")
	}
	// One rank less must violate the tolerance.
	prev, err := fixedRank(a, res.Rank-1)
	if err != nil {
		t.Fatal(err)
	}
	if prev.TailNorm < tol*res.NormA {
		t.Fatalf("rank %d already satisfies the tolerance — FixedPrecision not minimal", res.Rank-1)
	}
}

func TestMinRankEdgeCases(t *testing.T) {
	sv := []float64{4, 2, 1}
	normA := math.Sqrt(16 + 4 + 1)
	if r := MinRank(sv, normA, 2.0); r != 0 {
		t.Fatalf("huge tolerance should give rank 0, got %d", r)
	}
	if r := MinRank(sv, normA, 1e-12); r != 3 {
		t.Fatalf("tiny tolerance should give full rank, got %d", r)
	}
	// Tail after rank 1 is √5 ≈ 2.236; tolerance fraction just above.
	tol := 2.24 / normA
	if r := MinRank(sv, normA, tol); r != 1 {
		t.Fatalf("expected rank 1, got %d", r)
	}
}

func TestMinRankCurveMonotone(t *testing.T) {
	a := randSparse(25, 25, 0.4, 4)
	tols := []float64{0.5, 0.2, 0.1, 0.05, 0.01}
	curve := MinRankCurve(a, tols)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("min rank must grow as tolerance tightens: %v", curve)
		}
	}
}

func TestErrorsOnBadInput(t *testing.T) {
	if _, err := fixedRank(sparse.NewCSR(0, 3), 2); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestFixedRankBeyondFullRank(t *testing.T) {
	a := randSparse(6, 4, 0.6, 6)
	res, err := fixedRank(a, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank != 4 {
		t.Fatalf("rank clamped to %d, want 4", res.Rank)
	}
	if res.TailNorm > 1e-10*res.NormA {
		t.Fatal("full-rank truncation should be exact")
	}
}

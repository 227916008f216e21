package randqb

import (
	"math"
	"testing"
	"testing/quick"

	"sparselr/internal/mat"
)

// TestIndicatorIdentityProperty verifies the theorem behind eq (4):
// for any factorization with orthonormal Q, ‖A − QB‖²_F = ‖A‖²_F − ‖B‖²_F
// when B = QᵀA.
func TestIndicatorIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randSparse(20, 16, 0.4, seed)
		if a.NNZ() == 0 {
			return true
		}
		// Any orthonormal Q works; take a randomized sketch basis.
		om := mat.NewDense(16, 5)
		rngFill(om, seed+1)
		q := mat.Orth(a.MulDense(om))
		if q.Cols == 0 {
			return true
		}
		b := a.MulTDense(q).T()
		diff := a.ToDense()
		diff.Sub(mat.Mul(q, b))
		lhs := diff.FrobNorm2()
		rhs := a.FrobNorm2() - b.FrobNorm2()
		return math.Abs(lhs-rhs) < 1e-9*(1+a.FrobNorm2())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func rngFill(d *mat.Dense, seed int64) {
	s := uint64(seed)*2654435761 + 12345
	for i := range d.Data {
		s = s*6364136223846793005 + 1442695040888963407
		d.Data[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
}

// TestRankMonotoneInTolerance: loosening τ can only shrink (or keep) the
// rank the method needs, given the same sketch stream.
func TestRankMonotoneInTolerance(t *testing.T) {
	a := decayMatrix(60, 60, 35, 0.75, 50)
	prevRank := 0
	for _, tol := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		r, err := Factor(a, Options{BlockSize: 4, Tol: tol, Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		if prevRank != 0 && r.Rank > prevRank {
			t.Fatalf("rank grew from %d to %d when loosening to tau=%g", prevRank, r.Rank, tol)
		}
		prevRank = r.Rank
	}
}

// TestIndicatorNeverUnderestimates: eq (4) equals the true error up to
// roundoff for RandQB_EI, so it must never underestimate materially.
func TestIndicatorNeverUnderestimates(t *testing.T) {
	f := func(seed int64) bool {
		a := decayMatrix(30, 30, 15, 0.7, seed)
		r, err := Factor(a, Options{BlockSize: 4, Tol: 1e-2, Seed: seed})
		if err != nil {
			return false
		}
		te := a.ResidualFrobNorm(r.Q, r.B)
		return te <= r.ErrIndicator+1e-8*r.NormA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

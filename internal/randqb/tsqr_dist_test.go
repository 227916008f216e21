package randqb

import (
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
)

func randTall(m, w int, seed int64) *mat.Dense {
	a := mat.NewDense(m, w)
	s := uint64(seed)*2654435761 + 1
	for i := range a.Data {
		s = s*6364136223846793005 + 1442695040888963407
		a.Data[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
	return a
}

func orthErrQ(q *mat.Dense) float64 {
	g := mat.MulT(q, q)
	g.Sub(mat.Identity(q.Cols))
	return g.InfNorm()
}

func TestDistTSQROrthonormalAndSpanning(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		y := randTall(50, 6, int64(p))
		results := make([]*mat.Dense, p)
		dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
			results[c.Rank()] = distTSQR(c, y, "orth/TSQR", new(mat.OrthWorkspace))
		})
		for r := 0; r < p; r++ {
			q := results[r]
			if q.Rows != 50 || q.Cols != 6 {
				t.Fatalf("p=%d rank=%d: Q dims %d×%d", p, r, q.Rows, q.Cols)
			}
			if e := orthErrQ(q); e > 1e-10 {
				t.Fatalf("p=%d rank=%d: orthogonality loss %v", p, r, e)
			}
			// Q must span range(y): y = Q(Qᵀy).
			proj := mat.Mul(q, mat.MulT(q, y))
			if !proj.Equal(y, 1e-9) {
				t.Fatalf("p=%d rank=%d: Q does not span range(y)", p, r)
			}
			if r > 0 && !q.Equal(results[0], 0) {
				t.Fatalf("p=%d: ranks disagree on Q", p)
			}
		}
	}
}

func TestDistTSQRDeficientFallback(t *testing.T) {
	// Rank-2 input with 5 requested columns: the deficiency check must
	// fire and the fallback must return a 2-column basis on every rank.
	u := randTall(40, 2, 9)
	v := randTall(5, 2, 10)
	y := mat.MulBT(u, v)
	p := 4
	dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
		q := distTSQR(c, y, "orth/TSQR", new(mat.OrthWorkspace))
		if q.Cols != 2 {
			t.Errorf("rank %d: fallback basis has %d columns, want 2", c.Rank(), q.Cols)
		}
		if e := orthErrQ(q); e > 1e-10 {
			t.Errorf("rank %d: fallback not orthonormal", c.Rank())
		}
	})
}

func TestDistTSQRZeroColumns(t *testing.T) {
	dist.Run(2, dist.DefaultConfig(), func(c *dist.Comm) {
		q := distTSQR(c, mat.NewDense(10, 0), "orth/TSQR", new(mat.OrthWorkspace))
		if q.Cols != 0 || q.Rows != 10 {
			t.Error("zero-column input mishandled")
		}
	})
}

func TestDistTSQRChargesKernel(t *testing.T) {
	y := randTall(60, 4, 11)
	res := dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		distTSQR(c, y, "orth/TSQR", new(mat.OrthWorkspace))
	})
	if res.MaxKernel("orth/TSQR") <= 0 {
		t.Fatal("TSQR kernel time missing")
	}
	// Real messages flowed: comm time is nonzero.
	comm := 0.0
	for _, s := range res.Ranks {
		comm += s.CommTime
	}
	if comm <= 0 {
		t.Fatal("no communication recorded")
	}
}

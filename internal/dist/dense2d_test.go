package dist

import (
	"math/rand"
	"testing"

	"sparselr/internal/mat"
)

func randD(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func TestGridGeometry(t *testing.T) {
	Run(6, cfg(), func(c *Comm) {
		g := NewGrid(c, 2, 3)
		if g.Row() != c.Rank()/3 || g.Col() != c.Rank()%3 {
			t.Errorf("rank %d at (%d,%d)", c.Rank(), g.Row(), g.Col())
		}
		pr, pc := g.Dims()
		if pr != 2 || pc != 3 {
			t.Error("bad dims")
		}
	})
}

func TestGridShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(4, cfg(), func(c *Comm) {
		NewGrid(c, 2, 3)
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {4, 1}, {2, 2}, {2, 3}} {
		p := shape[0] * shape[1]
		a := randD(13, 11, int64(p)) // non-divisible sizes
		Run(p, cfg(), func(c *Comm) {
			g := NewGrid(c, shape[0], shape[1])
			d := ScatterDense(g, a)
			got := d.Gather()
			if !got.Equal(a, 0) {
				t.Errorf("grid %v: round trip changed the matrix", shape)
			}
		})
	}
}

func TestSUMMAMatchesSequentialGEMM(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 2}, {2, 3}, {3, 2}} {
		p := shape[0] * shape[1]
		a := randD(17, 13, int64(100+p))
		b := randD(13, 19, int64(200+p))
		want := mat.Mul(a, b)
		Run(p, cfg(), func(c *Comm) {
			g := NewGrid(c, shape[0], shape[1])
			da := ScatterDense(g, a)
			db := ScatterDense(g, b)
			dc := SUMMA(da, db)
			got := dc.Gather()
			if !got.Equal(want, 1e-11) {
				t.Errorf("grid %v: SUMMA wrong", shape)
			}
		})
	}
}

func TestSUMMADimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(4, cfg(), func(c *Comm) {
		g := NewGrid(c, 2, 2)
		SUMMA(ScatterDense(g, randD(4, 5, 1)), ScatterDense(g, randD(6, 4, 2)))
	})
}

func TestSUMMAModeledSpeedup(t *testing.T) {
	// The per-rank SUMMA flops shrink with the grid, so the modeled
	// runtime of a square multiply drops from 1 rank to a 2×2 grid.
	a := randD(60, 60, 301)
	timeFor := func(pr, pc int) float64 {
		res := Run(pr*pc, cfg(), func(c *Comm) {
			g := NewGrid(c, pr, pc)
			SUMMA(ScatterDense(g, a), ScatterDense(g, a))
		})
		return res.MaxTime()
	}
	t1 := timeFor(1, 1)
	t4 := timeFor(2, 2)
	if t4 >= t1 {
		t.Fatalf("no modeled speedup: 1 rank %v vs 2×2 grid %v", t1, t4)
	}
	if kr := timeFor(2, 2); kr <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestSUMMAKernelAttribution(t *testing.T) {
	a := randD(20, 20, 302)
	res := Run(4, cfg(), func(c *Comm) {
		g := NewGrid(c, 2, 2)
		SUMMA(ScatterDense(g, a), ScatterDense(g, a))
	})
	if res.MaxKernel("SUMMA") <= 0 {
		t.Fatal("SUMMA kernel time missing")
	}
	if res.TotalMessages() == 0 {
		t.Fatal("SUMMA should move real panels between ranks")
	}
}

func TestDistDenseRanges(t *testing.T) {
	Run(6, cfg(), func(c *Comm) {
		g := NewGrid(c, 2, 3)
		d := NewDistDense(g, 10, 11)
		rlo, rhi := d.RowRange()
		clo, chi := d.ColRange()
		if d.Local.Rows != rhi-rlo || d.Local.Cols != chi-clo {
			t.Errorf("rank %d: local block %d×%d vs ranges %d/%d", c.Rank(), d.Local.Rows, d.Local.Cols, rhi-rlo, chi-clo)
		}
	})
}

func TestRowShare(t *testing.T) {
	for _, tc := range []struct{ rows, p int }{{10, 3}, {7, 7}, {5, 8}, {0, 4}} {
		total := 0
		prevHi := 0
		for r := 0; r < tc.p; r++ {
			lo, hi := RowShare(tc.rows, tc.p, r)
			if lo != prevHi {
				t.Fatalf("rows=%d p=%d: gap at rank %d", tc.rows, tc.p, r)
			}
			prevHi = hi
			total += hi - lo
		}
		if total != tc.rows {
			t.Fatalf("rows=%d p=%d: covered %d", tc.rows, tc.p, total)
		}
	}
}

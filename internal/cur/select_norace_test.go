//go:build !race

package cur

import (
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/randqb"
)

// Small M6 at τ = 1e-6: the first skeleton from RandQB_EI's basis misses
// τ, so the basis grows by a block and selection reruns until the exact
// residual holds. It takes about 30 s under -race, so it runs without.
func TestSelectionGrowsBasisOnMiss(t *testing.T) {
	pm, err := gen.ByLabel("M6", gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	a, tol := pm.A, 1e-6
	for _, v := range []Variant{CUR, ID2} {
		res, err := factor(a, v, randqb.Options{BlockSize: 16, Tol: tol, Power: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Iters < 2 || len(res.ErrHistory) != res.Iters || !res.Converged {
			t.Fatalf("%v: %d selections, history %v, converged %v; want ≥ 2 selections ending converged",
				v, res.Iters, res.ErrHistory, res.Converged)
		}
		if te := a.ResidualFrobNorm(res.C.MulDense(res.U), res.R.ToDense()); te > tol*res.NormA {
			t.Fatalf("%v: true error %g above τ‖A‖ %g", v, te, tol*res.NormA)
		}
	}
}

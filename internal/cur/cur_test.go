package cur

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// decayMatrix builds a sparse matrix with geometrically decaying
// singular structure from sparse rank-1 crosses (the randqb test
// fixture shape).
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

// factor runs Factor on a one-rank world, as core.Approximate does.
func factor(a *sparse.CSR, v Variant, opts randqb.Options) (*Result, error) {
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (*Result, error) {
		return Factor(c, a, v, opts)
	})
	return r, err
}

func variants() []Variant { return []Variant{CUR, ID2, ACA} }

func TestFactorConvergesAllVariants(t *testing.T) {
	a := decayMatrix(90, 70, 40, 0.6, 3)
	tol := 1e-3
	for _, v := range variants() {
		res, err := factor(a, v, randqb.Options{BlockSize: 8, Tol: tol, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge (indicator %g, bound %g)", v, res.ErrIndicator, tol*res.NormA)
		}
		te := a.ResidualFrobNorm(res.C.MulDense(res.U), res.R.ToDense())
		if te > tol*res.NormA {
			t.Fatalf("%v: true error %g above τ‖A‖ = %g", v, te, tol*res.NormA)
		}
		if math.Abs(te-res.ErrIndicator) > 1e-9*res.NormA {
			t.Fatalf("%v: indicator %g disagrees with streamed true error %g", v, res.ErrIndicator, te)
		}
		if res.Rank != len(res.RowIdx) || res.Rank != len(res.ColIdx) {
			t.Fatalf("%v: rank %d vs %d rows, %d cols", v, res.Rank, len(res.RowIdx), len(res.ColIdx))
		}
	}
}

// TestFactorsAreActualRowsAndCols pins the skeleton contract: C is
// exactly A(:,J) and R exactly A(I,:), entry for entry.
func TestFactorsAreActualRowsAndCols(t *testing.T) {
	a := decayMatrix(60, 50, 25, 0.65, 11)
	for _, v := range variants() {
		res, err := factor(a, v, randqb.Options{BlockSize: 4, Tol: 1e-2, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for p, j := range res.ColIdx {
			for i := 0; i < a.Rows; i++ {
				if res.C.At(i, p) != a.At(i, j) {
					t.Fatalf("%v: C(%d,%d) = %g ≠ A(%d,%d) = %g", v, i, p, res.C.At(i, p), i, j, a.At(i, j))
				}
			}
		}
		for p, i := range res.RowIdx {
			for j := 0; j < a.Cols; j++ {
				if res.R.At(p, j) != a.At(i, j) {
					t.Fatalf("%v: R(%d,%d) ≠ A(%d,%d)", v, p, j, i, j)
				}
			}
		}
		seenR, seenC := map[int]bool{}, map[int]bool{}
		for _, i := range res.RowIdx {
			if seenR[i] {
				t.Fatalf("%v: duplicate row index %d", v, i)
			}
			seenR[i] = true
		}
		for _, j := range res.ColIdx {
			if seenC[j] {
				t.Fatalf("%v: duplicate col index %d", v, j)
			}
			seenC[j] = true
		}
	}
}

func TestTableIFixedPrecision(t *testing.T) {
	tol := 1e-2
	for _, pm := range gen.TableI(gen.Small) {
		a := pm.A
		for _, v := range variants() {
			res, err := factor(a, v, randqb.Options{BlockSize: 16, Tol: tol, Seed: 1})
			if err != nil {
				t.Fatalf("%s %v: %v", pm.Label, v, err)
			}
			if !res.Converged {
				t.Errorf("%s %v: unconverged at rank %d", pm.Label, v, res.Rank)
				continue
			}
			if te := a.ResidualFrobNorm(res.C.MulDense(res.U), res.R.ToDense()); te > tol*res.NormA {
				t.Errorf("%s %v: true error %g above τ‖A‖ %g", pm.Label, v, te, tol*res.NormA)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := decayMatrix(80, 60, 30, 0.6, 5)
	for _, v := range variants() {
		for _, kind := range []sketch.Kind{sketch.Gaussian, sketch.SparseSign, sketch.SRTT} {
			o := randqb.Options{BlockSize: 8, Tol: 1e-3, Seed: 42, Sketch: kind}
			r1, err := factor(a, v, o)
			if err != nil {
				t.Fatalf("%v/%v: %v", v, kind, err)
			}
			r2, err := factor(a, v, o)
			if err != nil {
				t.Fatalf("%v/%v: %v", v, kind, err)
			}
			if !reflect.DeepEqual(r1.RowIdx, r2.RowIdx) || !reflect.DeepEqual(r1.ColIdx, r2.ColIdx) {
				t.Fatalf("%v/%v: skeleton indices differ across identical runs", v, kind)
			}
			if !r1.U.Equal(r2.U, 0) {
				t.Fatalf("%v/%v: core differs across identical runs", v, kind)
			}
			if r1.ErrIndicator != r2.ErrIndicator {
				t.Fatalf("%v/%v: indicator drifted: %g vs %g", v, kind, r1.ErrIndicator, r2.ErrIndicator)
			}
		}
	}
}

func TestFixedRankMode(t *testing.T) {
	a := decayMatrix(70, 60, 30, 0.7, 9)
	for _, v := range variants() {
		res, err := factor(a, v, randqb.Options{MaxRank: 12, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Rank != 12 {
			t.Fatalf("%v: fixed-rank run returned rank %d, want 12", v, res.Rank)
		}
		if res.Converged {
			t.Fatalf("%v: Converged must not be set in fixed-rank mode", v)
		}
	}
}

func TestMaxRankCapUnconverged(t *testing.T) {
	a := decayMatrix(60, 50, 40, 0.95, 13) // slow decay: rank 4 cannot reach 1e-6
	for _, v := range variants() {
		res, err := factor(a, v, randqb.Options{BlockSize: 4, Tol: 1e-6, MaxRank: 4, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if res.Converged {
			t.Fatalf("%v: claimed convergence at capped rank %d", v, res.Rank)
		}
		if res.Rank > 4 {
			t.Fatalf("%v: rank %d exceeds cap", v, res.Rank)
		}
	}
}

func TestZeroMatrix(t *testing.T) {
	a := sparse.NewCSR(10, 8)
	for _, v := range variants() {
		res, err := factor(a, v, randqb.Options{Tol: 1e-2})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !res.Converged || res.Rank != 0 {
			t.Fatalf("%v: zero matrix: converged=%v rank=%d", v, res.Converged, res.Rank)
		}
		if got := a.ResidualFrobNorm(res.C.MulDense(res.U), res.R.ToDense()); got != 0 {
			t.Fatalf("%v: zero matrix true error %g", v, got)
		}
	}
}

// TestACAEmptyRows exercises the pivot walk on a matrix with empty rows
// and columns: the walk must skip them without stalling.
func TestACAEmptyRows(t *testing.T) {
	b := sparse.NewBuilder(8, 7)
	b.Add(1, 2, 3.0)
	b.Add(1, 5, -1.0)
	b.Add(4, 2, 2.0)
	b.Add(6, 0, 0.5)
	a := b.ToCSR()
	res, err := factor(a, ACA, randqb.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("unconverged: indicator %g", res.ErrIndicator)
	}
	if te := a.ResidualFrobNorm(res.C.MulDense(res.U), res.R.ToDense()); te > 1e-10*res.NormA {
		t.Fatalf("true error %g", te)
	}
	for _, i := range res.RowIdx {
		if i == 0 || i == 2 || i == 3 || i == 5 || i == 7 {
			t.Fatalf("picked empty row %d", i)
		}
	}
}

func TestApproxMatchesFactors(t *testing.T) {
	a := decayMatrix(40, 30, 20, 0.6, 21)
	res, err := factor(a, CUR, randqb.Options{BlockSize: 4, Tol: 1e-3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The dense residual of the explicit C·U·R is the indicator.
	diff := a.ToDense()
	diff.Sub(mat.Mul(res.C.MulDense(res.U), res.R.ToDense()))
	if math.Abs(diff.FrobNorm()-res.ErrIndicator) > 1e-9*res.NormA {
		t.Fatalf("dense residual %g vs indicator %g", diff.FrobNorm(), res.ErrIndicator)
	}
}

// Factor checks the matrix and the variant; the τ and rank-cap rules
// are the request contract's (core.Options.Validate).
func TestOptionValidation(t *testing.T) {
	a := decayMatrix(10, 10, 5, 0.5, 1)
	if _, err := factor(nil, CUR, randqb.Options{Tol: 1e-2}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := factor(a, Variant(9), randqb.Options{Tol: 1e-2}); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// Where the first selection from RandQB_EI's basis meets τ, CUR and ID2
// keep RandQB_EI's rank and select once.
func TestSelectionKeepsQBRank(t *testing.T) {
	opts := randqb.Options{BlockSize: 16, Tol: 1e-3, Power: 1, Seed: 1}
	for _, pm := range gen.TableI(gen.Small) {
		qb, err := randqb.Factor(pm.A, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{CUR, ID2} {
			res, err := factor(pm.A, v, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", pm.Label, v, err)
			}
			if !res.Converged || res.Rank != qb.Rank || res.Iters != 1 {
				t.Errorf("%s %v: converged %v at rank %d after %d selections; want rank %d (RandQB_EI) after 1",
					pm.Label, v, res.Converged, res.Rank, res.Iters, qb.Rank)
			}
		}
	}
}

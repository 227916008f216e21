package lucrtp

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/qrtp"
	"sparselr/internal/sparse"
)

// qrtpSelectAmong plays the column tournament over cand on a one-rank
// world, where rank 0 owns every candidate.
func qrtpSelectAmong(a *sparse.CSR, cand []int, k int) []int {
	r, _, _ := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (qrtp.Result, error) {
		return qrtp.SelectColumnsDist(c, a.ToCSC(), cand, k), nil
	})
	return r.Winners
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

// decayMatrix builds a sparse-ish matrix with geometric singular value
// decay rate `rate` so fixed-precision runs converge at modest rank.
func decayMatrix(m, n, r int, rate float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	sigma := 1.0
	for t := 0; t < r; t++ {
		// Sparse rank-1 term σ·u·vᵀ with a few nonzeros in u and v.
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

func isPerm(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestFactorConvergesAndErrorAgrees(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 1)
	tol := 1e-3
	res, err := Factor(a, Options{BlockSize: 8, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: indicator %v vs bound %v", res.ErrIndicator, tol*res.NormA)
	}
	if res.ErrIndicator >= tol*res.NormA {
		t.Fatal("indicator above bound despite convergence")
	}
	trueErr := trueError(a, res)
	// For exact LU_CRTP the indicator equals the true error (eq 9).
	if math.Abs(trueErr-res.ErrIndicator) > 1e-8*res.NormA {
		t.Fatalf("indicator %v disagrees with true error %v", res.ErrIndicator, trueErr)
	}
}

func TestFactorShapesAndPermutations(t *testing.T) {
	a := decayMatrix(40, 55, 20, 0.5, 2)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Dims()
	if lr, lc := res.L.Dims(); lr != m || lc != res.Rank {
		t.Fatalf("L dims %d×%d, want %d×%d", lr, lc, m, res.Rank)
	}
	if ur, uc := res.U.Dims(); ur != res.Rank || uc != n {
		t.Fatalf("U dims %d×%d", ur, uc)
	}
	if !isPerm(res.RowPerm, m) || !isPerm(res.ColPerm, n) {
		t.Fatal("invalid permutations")
	}
	if res.Rank != res.Iters*4 && !res.HitNumRank && res.Rank%4 != 0 {
		t.Fatalf("rank %d inconsistent with %d iterations of block 4", res.Rank, res.Iters)
	}
}

func TestLHasUnitDiagonal(t *testing.T) {
	a := decayMatrix(30, 30, 15, 0.5, 3)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Rank; i++ {
		if res.L.At(i, i) != 1 {
			t.Fatalf("L(%d,%d) = %v, want 1", i, i, res.L.At(i, i))
		}
		// Strictly-upper part of the leading K×K block must be zero.
		for j := i + 1; j < res.Rank; j++ {
			if res.L.At(i, j) != 0 {
				t.Fatalf("L(%d,%d) = %v, want 0", i, j, res.L.At(i, j))
			}
		}
	}
}

func TestExactRankRecovery(t *testing.T) {
	// A matrix of exact rank 12: LU_CRTP must terminate with zero error
	// at (or just above, block-rounded) that rank.
	a := decayMatrix(50, 40, 12, 0.9, 4)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged && !res.HitNumRank {
		t.Fatal("should converge or hit numerical rank on an exact-rank matrix")
	}
	if res.Rank > 16 {
		t.Fatalf("rank %d far above true rank 12", res.Rank)
	}
	if te := trueError(a, res); te > 1e-8*res.NormA {
		t.Fatalf("true error %v should be ~0 at full numerical rank", te)
	}
}

func TestFullFactorizationIsExact(t *testing.T) {
	// Run to completion on a small dense-ish matrix: LU with K = n must
	// reproduce A exactly.
	a := randSparse(18, 18, 0.6, 5)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-14, Reorder: ReorderOff})
	if err != nil {
		t.Fatal(err)
	}
	if te := trueError(a, res); te > 1e-9*res.NormA {
		t.Fatalf("full factorization true error %v", te)
	}
}

func TestErrHistoryMonotoneDecreasing(t *testing.T) {
	a := decayMatrix(50, 50, 25, 0.7, 6)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.ErrHistory); i++ {
		// The Schur complement norm is non-increasing up to roundoff for
		// a rank-revealing pivoting strategy on these benign matrices.
		if res.ErrHistory[i] > res.ErrHistory[i-1]*1.5 {
			t.Fatalf("error history jumped: %v", res.ErrHistory)
		}
	}
}

func TestReorderModesAllConverge(t *testing.T) {
	a := decayMatrix(40, 40, 20, 0.6, 7)
	for _, mode := range []ReorderMode{ReorderOff, ReorderFirst, ReorderEvery} {
		res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-3, Reorder: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("mode %v did not converge", mode)
		}
		if te := trueError(a, res); te >= 1.01e-3*res.NormA {
			t.Fatalf("mode %v true error %v", mode, te)
		}
	}
}

func TestStableLConverges(t *testing.T) {
	a := decayMatrix(40, 40, 20, 0.6, 8)
	res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-3, StableL: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("StableL run did not converge")
	}
	if te := trueError(a, res); te >= 1.01e-3*res.NormA {
		t.Fatalf("StableL true error %v above bound", te)
	}
}

func TestStableLIncreasesFactorNNZ(t *testing.T) {
	a := decayMatrix(60, 60, 30, 0.7, 9)
	plain, err := Factor(a, Options{BlockSize: 8, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	stable, err := Factor(a, Options{BlockSize: 8, Tol: 1e-4, StableL: true})
	if err != nil {
		t.Fatal(err)
	}
	// §VI-A: the stable form "introduces additional small values".
	if stable.NNZFactors() < plain.NNZFactors() {
		t.Fatalf("stable L nnz %d unexpectedly below plain %d", stable.NNZFactors(), plain.NNZFactors())
	}
}

func TestILUTReducesNNZAndKeepsQuality(t *testing.T) {
	// A fill-prone matrix: random sparse square. Compare LU_CRTP and
	// ILUT_CRTP at the same tolerance.
	a := randSparse(80, 80, 0.08, 10)
	tol := 1e-2
	lu, err := Factor(a, Options{BlockSize: 8, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	ilut, err := Factor(a, Options{BlockSize: 8, Tol: tol, Threshold: AutoThreshold, EstIters: lu.Iters})
	if err != nil {
		t.Fatal(err)
	}
	if !ilut.Converged {
		t.Fatal("ILUT did not converge")
	}
	if ilut.Mu <= 0 && !ilut.ControlTriggered {
		t.Fatal("auto threshold was never set")
	}
	// §VI-A: error smaller than τ‖A‖_F and agreeing with the estimator.
	te := trueError(a, ilut)
	if te >= tol*ilut.NormA*1.05 {
		t.Fatalf("ILUT true error %v above τ‖A‖ = %v", te, tol*ilut.NormA)
	}
	// True error is bounded by indicator + ‖T‖ (triangle inequality).
	bound := ilut.ErrIndicator + math.Sqrt(ilut.DroppedNorm2) + 1e-9*ilut.NormA
	if te > bound {
		t.Fatalf("true error %v exceeds indicator+‖T‖ bound %v", te, bound)
	}
	if ilut.NNZFactors() > lu.NNZFactors() {
		t.Logf("note: ILUT nnz %d above LU nnz %d (possible per §VI-A, 12/197 cases)", ilut.NNZFactors(), lu.NNZFactors())
	}
}

func TestILUTDropsEntries(t *testing.T) {
	a := randSparse(70, 70, 0.1, 11)
	ilut, err := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Threshold: AutoThreshold, EstIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ilut.DroppedNNZ == 0 && !ilut.ControlTriggered {
		t.Fatal("expected some entries to be dropped on a fill-prone matrix")
	}
	if ilut.DroppedNorm2 < 0 {
		t.Fatal("negative dropped mass")
	}
	if math.Sqrt(ilut.DroppedNorm2) >= ilut.Phi {
		t.Fatal("dropped mass must stay below φ (eq 22)")
	}
}

func TestAggressiveThresholding(t *testing.T) {
	a := randSparse(70, 70, 0.1, 12)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-2, Threshold: AggressiveThreshold, EstIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("aggressive ILUT did not converge")
	}
	if math.Sqrt(res.DroppedNorm2) >= res.Phi {
		t.Fatal("aggressive thresholding violated the φ budget")
	}
	te := trueError(a, res)
	if te >= 1.1e-2*res.NormA {
		t.Fatalf("aggressive ILUT true error %v too large", te)
	}
}

func TestThresholdControlTriggersOnHugeMu(t *testing.T) {
	a := randSparse(50, 50, 0.15, 13)
	// A huge fixed μ forces the very first threshold step over budget →
	// the control undoes it and disables thresholding (line 10, Alg 3).
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-3, Threshold: FixedThreshold, Mu: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ControlTriggered {
		t.Fatal("threshold control should have triggered")
	}
	if res.Mu != 0 {
		t.Fatal("μ must be zeroed after the control fires")
	}
	// With thresholding undone the result must match plain LU_CRTP.
	te := trueError(a, res)
	if math.Abs(te-res.ErrIndicator) > 1e-8*res.NormA {
		t.Fatal("after undo, indicator must equal the true error again")
	}
}

func TestStopAtNumericalRank(t *testing.T) {
	// Exact rank-10 matrix with tiny tolerance: the numerical-rank stop
	// must fire instead of running to min(m,n).
	a := decayMatrix(40, 40, 10, 0.8, 14)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-16, StopAtNumericalRank: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitNumRank && !res.Converged {
		t.Fatal("expected the numerical-rank criterion to fire")
	}
	if res.Rank > 16 {
		t.Fatalf("rank %d should be near the true rank 10", res.Rank)
	}
}

func TestMaxRankCap(t *testing.T) {
	a := randSparse(60, 60, 0.2, 15)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-14, MaxRank: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank > 24 {
		t.Fatalf("rank %d exceeds cap 24", res.Rank)
	}
}

func TestEmptyMatrixError(t *testing.T) {
	if _, err := Factor(sparse.NewCSR(0, 5), Options{Tol: 1e-3}); err == nil {
		t.Fatal("expected an error for an empty matrix")
	}
}

func TestFillHistoryRecorded(t *testing.T) {
	a := randSparse(50, 50, 0.1, 16)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FillHistory) != res.Iters || len(res.NNZHistory) != res.Iters || len(res.TimeHistory) != res.Iters {
		t.Fatal("history lengths must equal iteration count")
	}
	if res.MaxFill() <= 0 || res.MaxFill() > 1 {
		t.Fatalf("implausible max fill %v", res.MaxFill())
	}
}

func TestTallAndWideMatrices(t *testing.T) {
	for _, dims := range [][2]int{{80, 30}, {30, 80}} {
		a := decayMatrix(dims[0], dims[1], 15, 0.6, int64(17+dims[0]))
		res, err := Factor(a, Options{BlockSize: 4, Tol: 1e-3})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !res.Converged {
			t.Fatalf("%v did not converge", dims)
		}
		if te := trueError(a, res); te >= 1.01e-3*res.NormA {
			t.Fatalf("%v true error %v", dims, te)
		}
	}
}

func TestIndicatorEqualsSchurNorm(t *testing.T) {
	// Cross-check eq (9) another way: reconstruct A⁽ⁱ⁺¹⁾ from the
	// residual of the permuted matrix after the factorization.
	a := decayMatrix(30, 30, 18, 0.7, 19)
	res, err := Factor(a, Options{BlockSize: 8, Tol: 1e-4, Reorder: ReorderOff})
	if err != nil {
		t.Fatal(err)
	}
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	lu := sparse.SpGEMM(res.L, res.U)
	diff := sparse.Add(1, perm, -1, lu)
	// The residual lives entirely in the trailing block.
	lead := diff.ExtractBlock(0, res.Rank, 0, diff.Cols)
	if lead.FrobNorm() > 1e-8*res.NormA {
		t.Fatal("residual leaked into the factored rows")
	}
	leadCols := diff.ExtractBlock(res.Rank, diff.Rows, 0, res.Rank)
	if leadCols.FrobNorm() > 1e-8*res.NormA {
		t.Fatal("residual leaked into the factored columns")
	}
}

func TestColumnDiscardingPreservesQuality(t *testing.T) {
	// Cayrols-style pruning (ref [2]): with DiscardTol set, columns too
	// small to matter are excluded from the tournament; the result must
	// still satisfy the fixed-precision contract, and some columns must
	// actually have been pruned on a matrix with many tiny columns.
	a := decayMatrix(80, 80, 25, 0.6, 40)
	tol := 1e-2
	plain, err := Factor(a, Options{BlockSize: 8, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Factor(a, Options{BlockSize: 8, Tol: tol, DiscardTol: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Converged {
		t.Fatal("discarding run did not converge")
	}
	if te := trueError(a, pruned); te >= 1.01*tol*pruned.NormA {
		t.Fatalf("discarding run true error %v above bound", te)
	}
	if pruned.DiscardedCols == 0 {
		t.Fatal("expected some columns to be discarded (the decay matrix has many tiny columns)")
	}
	// The ranks agree up to a block: the pruned columns were never
	// viable pivots.
	if diff := pruned.Rank - plain.Rank; diff > 8 || diff < -8 {
		t.Fatalf("discarding changed the rank substantially: %d vs %d", pruned.Rank, plain.Rank)
	}
}

func TestSelectColumnsAmongSubset(t *testing.T) {
	// Restricting the tournament to a candidate set must only ever pick
	// winners from that set.
	a := randSparse(30, 24, 0.3, 41)
	cand := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	res := qrtpSelectAmong(a, cand, 4)
	inCand := map[int]bool{}
	for _, c := range cand {
		inCand[c] = true
	}
	for _, w := range res {
		if !inCand[w] {
			t.Fatalf("winner %d outside the candidate set", w)
		}
	}
}

func TestFactorAgainstDenseSVDQuality(t *testing.T) {
	// LU_CRTP rank for tolerance τ should be within a modest factor of
	// the optimal (SVD) rank.
	a := decayMatrix(40, 40, 25, 0.65, 20)
	tol := 1e-2
	res, err := Factor(a, Options{BlockSize: 2, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	sv := mat.SingularValues(a.ToDense())
	var tail float64
	optRank := len(sv)
	for r := len(sv) - 1; r >= 0; r-- {
		tail += sv[r] * sv[r]
		if math.Sqrt(tail) >= tol*res.NormA {
			optRank = r + 1
			break
		}
	}
	if res.Rank < optRank {
		t.Fatalf("rank %d below the information-theoretic minimum %d", res.Rank, optRank)
	}
	if res.Rank > 3*optRank+8 {
		t.Fatalf("rank %d far above optimal %d", res.Rank, optRank)
	}
}

// trueError is ‖P_r·A·P_c − L·U‖_F (eq 5 / eq 25), the quantity the
// error indicator estimates, formed from sparse products.
func trueError(a *sparse.CSR, res *Result) float64 {
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	return sparse.Add(1, perm, -1, sparse.SpGEMM(res.L, res.U)).FrobNorm()
}

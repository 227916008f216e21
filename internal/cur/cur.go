package cur

import (
	"fmt"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/sparse"
)

// Variant selects the skeleton-selection strategy.
type Variant int

const (
	// CUR selects columns by QRCP on RandQB_EI's B_K and rows by QRCP on
	// Q_Kᵀ, and solves the core U = C⁺AR⁺ by least squares through two
	// blocked Householder QRs.
	CUR Variant = iota
	// ID2 is the two-sided interpolative decomposition: CUR's column
	// selection, row selection from a second QRCP pass on the selected
	// columns, and the skeleton-inverse core U = A(I,J)⁻¹.
	ID2
	// ACA is adaptive cross approximation with partial pivoting: no
	// sketching, the skeleton grows one cross at a time by walking
	// residual rows and columns of the CSR structure.
	ACA
)

// String names the variant as the CLI does.
func (v Variant) String() string {
	switch v {
	case CUR:
		return "CUR"
	case ID2:
		return "ID2"
	case ACA:
		return "ACA"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Result is a skeleton factorization A ≈ C·U·R. C and R are actual
// columns and rows of A kept in CSR form, so the resident footprint of
// a rank-k result is O(nnz(C)+nnz(R)+k²) — not two dense panels. All
// fields are exported for gob (the serving cache persists results).
type Result struct {
	Variant Variant

	RowIdx []int       // I: selected row indices, in pivot order
	ColIdx []int       // J: selected column indices, in pivot order
	C      *sparse.CSR // m×k = A(:, J)
	R      *sparse.CSR // k×n = A(I, :)
	U      *mat.Dense  // k×k core

	Rank  int
	Iters int // selections (CUR/ID2) or pivot steps (ACA)
	NormA float64

	// ErrIndicator is the exact residual ‖A − CUR‖_F of the returned
	// factors, evaluated by the streamed kernel (A is never densified).
	ErrIndicator float64
	Converged    bool
	// ErrHistory records the exact residual of every selection (CUR/ID2)
	// or the indicator after every accepted cross (ACA: the running
	// incremental estimate).
	ErrHistory []float64
}

// Factor computes the fixed-precision skeleton approximation of a with
// variant v. CUR and ID2 grow a RandQB_EI basis to τ under opts (every
// field, Power included, means what it means to RandQB_EI), select a
// K-skeleton from the final Q_K and B_K, and accept it when the exact
// streamed residual is ≤ τ‖A‖_F; on a miss the basis grows by one block
// and selection runs again. Tol 0 is fixed-rank mode: one selection at
// K = MaxRank. ACA reads only Tol and MaxRank. Identical options produce
// bit-identical factors regardless of GOMAXPROCS: the sketch stream is
// seeded, QRCP pivoting is deterministic, and ACA pivot walks break ties
// by lowest index. Every kernel is charged to c. The options are the
// caller's to check (core.Options.Validate).
func Factor(c *dist.Comm, a *sparse.CSR, v Variant, opts randqb.Options) (*Result, error) {
	if a == nil || a.Rows == 0 || a.Cols == 0 {
		return nil, fmt.Errorf("cur: empty matrix")
	}
	if v != CUR && v != ID2 && v != ACA {
		return nil, fmt.Errorf("cur: unknown variant %v", v)
	}
	normA := a.FrobNorm()
	if normA == 0 {
		return zeroRank(a, v), nil
	}
	if v == ACA {
		maxRank := opts.MaxRank
		if maxRank <= 0 || maxRank > min(a.Rows, a.Cols) {
			maxRank = min(a.Rows, a.Cols)
		}
		return acaFactor(c, a, opts.Tol, normA, maxRank)
	}

	res := &Result{Variant: v, NormA: normA}
	var selErr error
	accept := func(q, b *mat.Dense) bool {
		res.Iters++
		if selErr = res.selectSkeleton(c, a, q, b); selErr != nil {
			return true
		}
		res.ErrHistory = append(res.ErrHistory, res.ErrIndicator)
		res.Converged = opts.Tol > 0 && res.ErrIndicator <= opts.Tol*normA
		return opts.Tol == 0 || res.Converged
	}
	if _, err := randqb.FactorDist(c, a, opts, accept); err != nil {
		return nil, err
	}
	if selErr != nil {
		return nil, selErr
	}
	return res, nil
}

// zeroRank is the exact factorization of the zero matrix.
func zeroRank(a *sparse.CSR, v Variant) *Result {
	return &Result{
		Variant: v,
		RowIdx:  []int{}, ColIdx: []int{},
		C: sparse.NewCSR(a.Rows, 0), R: sparse.NewCSR(0, a.Cols),
		U:         mat.NewDense(0, 0),
		Converged: true,
	}
}

// selectSkeleton picks a K-skeleton from a QB basis (q m×K, b K×n),
// solves the core and stores the skeleton and its exact residual in res.
// The columns J are the first K QRCP pivots of B_K; CUR takes its rows
// from the QRCP of Q_Kᵀ and ID2 from a QRCP pass on A(:,J)ᵀ, the rows
// that best span the selected columns' row space.
func (res *Result) selectSkeleton(c *dist.Comm, a *sparse.CSR, q, b *mat.Dense) error {
	k := b.Rows
	cols := pivotIndices(c, b, k)
	cd := a.ExtractColsDense(cols)
	var rows []int
	if res.Variant == CUR {
		rows = pivotIndices(c, q.T(), k)
	} else {
		rows = pivotIndices(c, cd.T(), k)
	}
	cs := a.ExtractCols(cols)
	r := a.ExtractRows(rows)
	rd := r.ToDense()

	var u *mat.Dense
	var err error
	if res.Variant == ID2 {
		u, err = coreSkeleton(c, cd, rows)
		if err != nil {
			// Singular skeleton: fall back to the least-squares core,
			// which is defined whenever C and R have full rank.
			u, err = coreLS(c, a, cd, rd)
		}
	} else {
		u, err = coreLS(c, a, cd, rd)
	}
	if err != nil {
		return fmt.Errorf("cur: rank-%d skeleton is numerically rank-deficient: %w", k, err)
	}
	res.RowIdx, res.ColIdx = rows, cols
	res.C, res.R, res.U = cs, r, u
	res.Rank = k
	res.ErrIndicator = residual(c, a, cs, u, rd)
	return nil
}

// pivotIndices returns the first k QRCP pivot columns of y.
func pivotIndices(c *dist.Comm, y *mat.Dense, k int) []int {
	c.Compute(mat.QRFlops(y.Dims()), "select")
	_, perm := mat.QRCPSelect(y)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// coreLS solves the CUR core U = C⁺AR⁺ by least squares: with thin QRs
// C = Q_c·R_c and Rᵀ = Q_r·R_r, U = R_c⁻¹·(Q_cᵀ A Q_r)·R_r⁻ᵀ. The k×k
// middle factor needs one sparse×dense product; A stays sparse.
func coreLS(c *dist.Comm, a *sparse.CSR, cd, rd *mat.Dense) (*mat.Dense, error) {
	qc, rc := qr(c, cd)
	qr2, rr := qr(c, rd.T())
	c.Compute(2*float64(a.NNZ())*float64(qr2.Cols), "SpMM")
	h := mulT(c, qc, a.MulDense(qr2))
	h1, err := solveUpper(c, rc, h)
	if err != nil {
		return nil, err
	}
	ut, err := solveUpper(c, rr, h1.T())
	if err != nil {
		return nil, err
	}
	return ut.T(), nil
}

// coreSkeleton inverts the skeleton submatrix: U = A(I,J)⁻¹, where cd
// already holds the selected columns so A(I,J) is a row gather.
func coreSkeleton(c *dist.Comm, cd *mat.Dense, rows []int) (*mat.Dense, error) {
	k := len(rows)
	s := mat.NewDense(k, k)
	for p, i := range rows {
		copy(s.Row(p), cd.Row(i))
	}
	// LU (2k³/3) and k right-hand sides (2k³).
	c.Compute(8*float64(k)*float64(k)*float64(k)/3, "core")
	return mat.Solve(s, mat.Identity(k))
}

// qr is mat.QR charged as a thin QR with Q formed.
func qr(c *dist.Comm, x *mat.Dense) (q, r *mat.Dense) {
	c.Compute(mat.OrthFlops(x.Dims()), "orth")
	return mat.QR(x)
}

// mulT is mat.MulT (xᵀ·y) charged as a GEMM.
func mulT(c *dist.Comm, x, y *mat.Dense) *mat.Dense {
	c.Compute(2*float64(x.Rows)*float64(x.Cols)*float64(y.Cols), "GEMM")
	return mat.MulT(x, y)
}

// solveUpper is mat.SolveUpper charged as back substitution: k² flops
// per right-hand side.
func solveUpper(c *dist.Comm, r, b *mat.Dense) (*mat.Dense, error) {
	c.Compute(float64(r.Rows)*float64(r.Rows)*float64(b.Cols), "core")
	return mat.SolveUpper(r, b)
}

// residual is the exact streamed ‖A − (C·U)·R‖_F of a skeleton, with R
// given dense: the sparse C·U product, then 2·m·n·(k+1) + nnz(A) flops
// to form and square every residual row.
func residual(c *dist.Comm, a, cs *sparse.CSR, u, rd *mat.Dense) float64 {
	k := float64(u.Cols)
	c.Compute(2*float64(cs.NNZ())*k, "SpMM")
	cu := cs.MulDense(u)
	m, n := a.Dims()
	c.Compute(2*float64(m)*float64(n)*(k+1)+float64(a.NNZ()), "residual")
	return a.ResidualFrobNorm(cu, rd)
}

package cur

import (
	"fmt"

	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// Variant selects the skeleton-selection strategy.
type Variant int

const (
	// CUR selects columns and rows independently by sketch-then-QRCP and
	// solves the core U = C⁺AR⁺ by least squares through two blocked
	// Householder QRs.
	CUR Variant = iota
	// ID2 is the two-sided interpolative decomposition: sketched column
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

// Options configures a skeleton factorization. Zero values give
// sensible defaults (BlockSize 8, Oversample 8, Gaussian sketch).
type Options struct {
	Variant Variant

	// BlockSize is the initial skeleton size k₀ of the fixed-precision
	// restart loop (doubled until τ‖A‖_F holds); 0 → 8. ACA ignores it —
	// its rank grows one cross per pivot step.
	BlockSize int
	Tol       float64 // τ: stop when ‖A − CUR‖_F ≤ τ‖A‖_F
	MaxRank   int     // cap on the skeleton size (0 = min(m,n))

	// Oversample is the sketch surplus p: a size-k selection QRCPs a
	// (k+p)-row sketch of A (0 → 8). Ignored by ACA.
	Oversample int
	Seed       int64
	Sketch     sketch.Kind
	SketchNNZ  int
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
	Iters int // restarts (CUR/ID2) or pivot steps (ACA)
	NormA float64

	// ErrIndicator is the exact residual ‖A − CUR‖_F of the returned
	// factors, evaluated by the streamed kernel (A is never densified).
	ErrIndicator float64
	Converged    bool
	// ErrHistory records the indicator after every restart (CUR/ID2) or
	// every accepted cross (ACA: the running incremental estimate).
	ErrHistory []float64
}

// rowSeedSalt decorrelates the row-selection sketch stream from the
// column-selection stream drawn from the same user seed.
const rowSeedSalt = 0x6a09e667f3bcc909

// Factor computes the fixed-precision skeleton approximation of a with
// the selected variant. Identical options produce bit-identical factors
// regardless of GOMAXPROCS: the sketch streams are seeded, QRCP pivoting
// is deterministic, and ACA pivot walks break ties by lowest index.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	if a == nil || a.Rows == 0 || a.Cols == 0 {
		return nil, fmt.Errorf("cur: empty matrix")
	}
	if opts.Tol < 0 {
		return nil, fmt.Errorf("cur: tolerance must be nonnegative, got %g", opts.Tol)
	}
	if opts.Tol == 0 && opts.MaxRank <= 0 {
		return nil, fmt.Errorf("cur: need Tol > 0 or MaxRank > 0")
	}
	minDim := min(a.Rows, a.Cols)
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > minDim {
		maxRank = minDim
	}
	normA := a.FrobNorm()
	if normA == 0 {
		return zeroRank(a, opts.Variant), nil
	}
	if opts.Variant == ACA {
		return acaFactor(a, opts, normA, maxRank)
	}

	k := opts.BlockSize
	if k <= 0 {
		k = 8
	}
	if k > maxRank || opts.Tol == 0 {
		// Fixed-rank mode (Tol 0) runs one trial at the cap.
		k = maxRank
	}
	aT := a.Transpose()
	res := &Result{Variant: opts.Variant, NormA: normA}
	for {
		res.Iters++
		tr, err := skeletonTrial(a, aT, opts, k)
		if err != nil {
			return nil, err
		}
		res.RowIdx, res.ColIdx = tr.rows, tr.cols
		res.C, res.R, res.U = tr.c, tr.r, tr.u
		res.Rank = k
		res.ErrIndicator = tr.err
		res.ErrHistory = append(res.ErrHistory, tr.err)
		if opts.Tol > 0 && tr.err <= opts.Tol*normA {
			res.Converged = true
			return res, nil
		}
		if k >= maxRank {
			return res, nil
		}
		k *= 2
		if k > maxRank {
			k = maxRank
		}
	}
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

// trial is one restart of the CUR/ID2 loop at a fixed skeleton size.
type trial struct {
	rows, cols []int
	c, r       *sparse.CSR
	u          *mat.Dense
	err        float64
}

// skeletonTrial selects a size-k skeleton, solves the core, and
// evaluates the exact residual. aT is A's transpose, shared across
// restarts.
func skeletonTrial(a, aT *sparse.CSR, opts Options, k int) (trial, error) {
	p := opts.Oversample
	if p <= 0 {
		p = 8
	}
	l := k + p
	if d := min(a.Rows, a.Cols); l > d {
		l = d
	}

	// Column selection: QRCP the row-space sketch Y = ΩᵀA (l×n), drawn
	// as Y = (AᵀΩ)ᵀ so the CSR transpose feeds the sketch apply kernel.
	cols := pivotIndices(sketchApply(aT, opts, opts.Seed, l), k)

	var rows []int
	switch opts.Variant {
	case CUR:
		// Row selection mirrors the column side on a decorrelated
		// column-space sketch W = AΩ (m×l).
		rows = pivotIndices(sketchApply(a, opts, opts.Seed^rowSeedSalt, l), k)
	case ID2:
		// Two-sided ID: a second QRCP pass on Cᵀ — the rows that best
		// span the selected columns' row space.
		rows = pivotIndices(a.ExtractColsDense(cols).T(), k)
	default:
		return trial{}, fmt.Errorf("cur: unknown variant %v", opts.Variant)
	}

	c := a.ExtractCols(cols)
	r := a.ExtractRows(rows)
	cd := a.ExtractColsDense(cols)
	rd := r.ToDense()

	var u *mat.Dense
	var err error
	if opts.Variant == ID2 {
		u, err = coreSkeleton(cd, rows)
		if err != nil {
			// Singular skeleton: fall back to the least-squares core,
			// which is defined whenever C and R have full rank.
			u, err = coreLS(a, cd, rd)
		}
	} else {
		u, err = coreLS(a, cd, rd)
	}
	if err != nil {
		return trial{}, fmt.Errorf("cur: rank-%d skeleton is numerically rank-deficient: %w", k, err)
	}
	exact := a.ResidualFrobNorm(c.MulDense(u), rd)
	return trial{rows: rows, cols: cols, c: c, r: r, u: u, err: exact}, nil
}

// sketchApply draws an l-column sketch block over x's column count and
// returns (X·Ω)ᵀ — the l×rows matrix whose QRCP pivots rank x's rows
// (columns of the original operand when x is the transpose).
func sketchApply(x *sparse.CSR, opts Options, seed int64, l int) *mat.Dense {
	sk := sketch.New(opts.Sketch, x.Cols, seed, opts.SketchNNZ)
	return sk.Next(l).MulCSR(x).T()
}

// pivotIndices returns the first k QRCP pivot columns of y.
func pivotIndices(y *mat.Dense, k int) []int {
	_, perm := mat.QRCPSelect(y)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// coreLS solves the CUR core U = C⁺AR⁺ by least squares: with thin QRs
// C = Q_c·R_c and Rᵀ = Q_r·R_r, U = R_c⁻¹·(Q_cᵀ A Q_r)·R_r⁻ᵀ. The k×k
// middle factor needs one sparse×dense product; A stays sparse.
func coreLS(a *sparse.CSR, cd, rd *mat.Dense) (*mat.Dense, error) {
	qc, rc := mat.QR(cd)
	qr2, rr := mat.QR(rd.T())
	h := mat.MulT(qc, a.MulDense(qr2))
	h1, err := mat.SolveUpper(rc, h)
	if err != nil {
		return nil, err
	}
	ut, err := mat.SolveUpper(rr, h1.T())
	if err != nil {
		return nil, err
	}
	return ut.T(), nil
}

// coreSkeleton inverts the skeleton submatrix: U = A(I,J)⁻¹, where cd
// already holds the selected columns so A(I,J) is a row gather.
func coreSkeleton(cd *mat.Dense, rows []int) (*mat.Dense, error) {
	k := len(rows)
	s := mat.NewDense(k, k)
	for p, i := range rows {
		copy(s.Row(p), cd.Row(i))
	}
	return mat.Solve(s, mat.Identity(k))
}

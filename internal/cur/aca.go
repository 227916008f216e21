package cur

import (
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// acaState is the partial-pivot cross-approximation loop state. The
// residual Res = A − Σ u_l·v_lᵀ is never formed: single residual rows
// and columns are evaluated on demand from the CSR structure and the
// accumulated crosses, and ‖Res‖²_F is tracked by an exact incremental
// downdate (exact in exact arithmetic; the driver re-verifies against
// the streamed residual before declaring convergence).
type acaState struct {
	c       *dist.Comm
	a, aT   *sparse.CSR
	us, vs  [][]float64 // accepted crosses: u_l ∈ ℝ^m, v_l ∈ ℝ^n
	rowIdx  []int
	colIdx  []int
	usedRow []bool
	usedCol []bool
	e2      float64   // running ‖A − Σ u·vᵀ‖²_F
	next    int       // next pivot row (-1: all rows exhausted)
	rrow    []float64 // scratch: residual row (n)
	rcol    []float64 // scratch: residual column (m)
}

// pivotFloorRel is the relative floor under which a residual entry is
// too small to be a stable pivot: dividing by it would amplify roundoff
// past anything the fixed-precision check could absorb.
const pivotFloorRel = 1e-15

// acaFactor runs ACA with partial pivoting until the incremental
// indicator clears τ‖A‖_F, then verifies with the exact streamed
// residual, resuming the pivot walk if roundoff left the true error
// above the target.
func acaFactor(c *dist.Comm, a *sparse.CSR, opts Options, normA float64, maxRank int) (*Result, error) {
	m, n := a.Dims()
	c.Compute(2*float64(a.NNZ()), "select") // the heaviest row
	st := &acaState{
		c: c, a: a, aT: a.Transpose(),
		usedRow: make([]bool, m), usedCol: make([]bool, n),
		e2:   normA * normA,
		rrow: make([]float64, n), rcol: make([]float64, m),
		next: heaviestRow(a),
	}
	res := &Result{Variant: ACA, NormA: normA}
	floor := pivotFloorRel * normA
	target2 := opts.Tol * opts.Tol * normA * normA
	for {
		st.pivotTo(target2, maxRank, floor, res)
		if err := st.finalize(res, opts.Tol, normA); err != nil {
			return nil, err
		}
		if res.Converged || res.Rank >= maxRank || st.next < 0 || opts.Tol == 0 {
			return res, nil
		}
		// The incremental estimate cleared τ but the exact residual did
		// not (roundoff drift): demand real progress and keep pivoting.
		target2 = st.e2 / 4
	}
}

// pivotTo grows the cross set until e2 ≤ target2, the rank cap, or pivot
// exhaustion. Each step either accepts a cross or permanently retires a
// row whose residual has no usable pivot, so it terminates.
func (st *acaState) pivotTo(target2 float64, maxRank int, floor float64, res *Result) {
	for len(st.rowIdx) < maxRank && st.next >= 0 {
		i := st.next
		st.resRow(i)
		j := argmaxAbsUnused(st.rrow, st.usedCol)
		if j < 0 || math.Abs(st.rrow[j]) <= floor {
			st.usedRow[i] = true
			st.next = firstUnused(st.usedRow)
			continue
		}
		delta := st.rrow[j]
		st.resCol(j)
		u := append([]float64(nil), st.rcol...)
		v := make([]float64, len(st.rrow))
		for t, x := range st.rrow {
			v[t] = x / delta
		}
		// Exact downdate: ‖Res − u·vᵀ‖² = ‖Res‖² − 2·uᵀ(Res·v) + ‖u‖²‖v‖².
		st.c.Compute(2*float64(st.a.NNZ()), "SpMM")
		rv := st.a.MulVec(v)
		m, n := float64(len(u)), float64(len(v))
		st.c.Compute(2*(m+n)*float64(len(st.us))+4*m+2*n, "select")
		for l := range st.us {
			mat.Axpy(-mat.Dot(st.vs[l], v), st.us[l], rv)
		}
		st.e2 += mat.Dot(u, u)*mat.Dot(v, v) - 2*mat.Dot(u, rv)
		if st.e2 < 0 {
			st.e2 = 0
		}
		st.us, st.vs = append(st.us, u), append(st.vs, v)
		st.rowIdx, st.colIdx = append(st.rowIdx, i), append(st.colIdx, j)
		st.usedRow[i], st.usedCol[j] = true, true
		res.Iters++
		res.ErrHistory = append(res.ErrHistory, math.Sqrt(st.e2))
		if st.e2 <= target2 {
			// Leave a valid next row for a possible resume.
			st.next = st.nextRow(u)
			return
		}
		st.next = st.nextRow(u)
	}
}

// nextRow picks the next pivot row: the largest |u| entry over unused
// rows (the standard partial-pivoting walk), falling back to the first
// unused row when the column is supported only on retired rows.
func (st *acaState) nextRow(u []float64) int {
	if i := argmaxAbsUnused(u, st.usedRow); i >= 0 {
		return i
	}
	return firstUnused(st.usedRow)
}

// finalize converts the accumulated crosses to skeleton C-U-R form and
// runs the exact convergence check. The cross factors satisfy
// span(U_f) ⊆ span(C) and span(V_f) ⊆ span(Rᵀ), so projecting,
// U = (C⁺U_f)(V_fᵀR⁺), reproduces the ACA approximation exactly in
// exact arithmetic while storing only indices, sparse rows/columns and
// the k×k core.
func (st *acaState) finalize(res *Result, tol, normA float64) error {
	k := len(st.rowIdx)
	if k == 0 {
		z := zeroRank(st.a, ACA)
		res.RowIdx, res.ColIdx, res.C, res.R, res.U = z.RowIdx, z.ColIdx, z.C, z.R, z.U
		res.ErrIndicator = normA
		res.Converged = tol > 0 && normA <= tol*normA
		return nil
	}
	res.RowIdx = append([]int(nil), st.rowIdx...)
	res.ColIdx = append([]int(nil), st.colIdx...)
	res.C = st.a.ExtractCols(res.ColIdx)
	res.R = st.a.ExtractRows(res.RowIdx)
	res.Rank = k

	m, n := st.a.Dims()
	uf, vf := mat.NewDense(m, k), mat.NewDense(n, k)
	for l := 0; l < k; l++ {
		uf.SetCol(l, st.us[l])
		vf.SetCol(l, st.vs[l])
	}
	c := st.c
	cd := st.a.ExtractColsDense(res.ColIdx)
	rd := res.R.ToDense()
	qc, rc := qr(c, cd)
	qr2, rr := qr(c, rd.T())
	x, err := solveUpper(c, rc, mulT(c, qc, uf))
	if err != nil {
		return err
	}
	y, err := solveUpper(c, rr, mulT(c, qr2, vf))
	if err != nil {
		return err
	}
	c.Compute(2*float64(k)*float64(k)*float64(k), "GEMM")
	res.U = mat.MulBT(x, y)
	res.ErrIndicator = residual(c, st.a, res.C, res.U, rd)
	res.Converged = tol > 0 && res.ErrIndicator <= tol*normA
	return nil
}

// resRow evaluates residual row i into st.rrow: A(i,:) − Σ u_l(i)·v_l.
func (st *acaState) resRow(i int) {
	st.c.Compute(2*float64(len(st.rrow))*float64(len(st.us)), "select")
	for t := range st.rrow {
		st.rrow[t] = 0
	}
	cols, vals := st.a.RowView(i)
	for t, j := range cols {
		st.rrow[j] = vals[t]
	}
	for l := range st.us {
		if c := st.us[l][i]; c != 0 {
			mat.Axpy(-c, st.vs[l], st.rrow)
		}
	}
}

// resCol evaluates residual column j into st.rcol: A(:,j) − Σ v_l(j)·u_l.
func (st *acaState) resCol(j int) {
	st.c.Compute(2*float64(len(st.rcol))*float64(len(st.us)), "select")
	for t := range st.rcol {
		st.rcol[t] = 0
	}
	rows, vals := st.aT.RowView(j)
	for t, i := range rows {
		st.rcol[i] = vals[t]
	}
	for l := range st.vs {
		if c := st.vs[l][j]; c != 0 {
			mat.Axpy(-c, st.us[l], st.rcol)
		}
	}
}

// heaviestRow is the deterministic starting pivot: the row with the
// largest 2-norm, ties to the lowest index. Returns -1 only for a
// matrix with no entries (handled by the zero-norm fast path).
func heaviestRow(a *sparse.CSR) int {
	best, bestN := -1, 0.0
	for i := 0; i < a.Rows; i++ {
		_, vals := a.RowView(i)
		var s float64
		for _, v := range vals {
			s += v * v
		}
		if s > bestN {
			best, bestN = i, s
		}
	}
	return best
}

// argmaxAbsUnused returns the index of the largest |x| entry whose slot
// is not marked used (ties to the lowest index), or -1 if every
// candidate is zero or used.
func argmaxAbsUnused(x []float64, used []bool) int {
	best, bestV := -1, 0.0
	for t, v := range x {
		if used[t] {
			continue
		}
		if a := math.Abs(v); a > bestV {
			best, bestV = t, a
		}
	}
	return best
}

// firstUnused returns the lowest unmarked index, or -1.
func firstUnused(used []bool) int {
	for i, u := range used {
		if !u {
			return i
		}
	}
	return -1
}

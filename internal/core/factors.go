package core

import (
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// MaxFactors is the length of the longest factor table (LU's
// P_r, L, U, P_c). Callers pass a [MaxFactors]Factor array's empty
// slice to Factors to keep the call free of allocations.
const MaxFactors = 4

// Factor is one stored factor of an approximation. Exactly one of
// Dense, Sparse, Values and Perm is set.
type Factor struct {
	Name   string
	Dense  *mat.Dense
	Sparse *sparse.CSR
	Values []float64 // a diagonal: the singular values
	// Perm is the permutation matrix P with P[i][Perm[i]] = 1: P·X takes
	// row Perm[i] of X as its row i.
	Perm []int
	// Transposed marks a factor that enters the product as its
	// transpose: the V of U·B·Vᵀ and U·S·Vᵀ, and LU's P_r.
	Transposed bool
}

// Entries counts the factor's stored entries: the nonzeros of a sparse
// factor, rows·cols of a dense one, the length of a value vector, and 0
// for a permutation, which stores indices only.
func (f Factor) Entries() int {
	switch {
	case f.Sparse != nil:
		return f.Sparse.NNZ()
	case f.Dense != nil:
		return f.Dense.Rows * f.Dense.Cols
	}
	return len(f.Values)
}

// Bytes is the one cost model of a factor's resident size: 12 bytes
// per sparse nonzero (8-byte value, 4-byte column index) plus 4 per row
// pointer, 8 per dense entry, value or permutation index.
func (f Factor) Bytes() int64 {
	if f.Sparse != nil {
		return int64(f.Sparse.NNZ())*12 + int64(f.Sparse.Rows)*4
	}
	return int64(f.Entries()+len(f.Perm)) * 8
}

// Factors appends the approximation's factors to dst and returns the
// extended slice. The table is the whole product in order: Â is
// P_rᵀ·L·U·P_cᵀ, Q·B, U·B·Vᵀ, U·S·Vᵀ or C·U·R. ARRF's Q is the one
// exception, since its Â = Q·Qᵀ·A needs A. The factors are views of the
// stored result; nothing is copied or inverted.
func (ap *Approximation) Factors(dst []Factor) []Factor {
	switch {
	case ap.LU != nil:
		return append(dst, Factor{Name: "Pr", Perm: ap.LU.RowPerm, Transposed: true},
			Factor{Name: "L", Sparse: ap.LU.L}, Factor{Name: "U", Sparse: ap.LU.U},
			Factor{Name: "Pc", Perm: ap.LU.ColPerm})
	case ap.QB != nil:
		return append(dst, Factor{Name: "Q", Dense: ap.QB.Q}, Factor{Name: "B", Dense: ap.QB.B})
	case ap.UBV != nil:
		return append(dst, Factor{Name: "U", Dense: ap.UBV.U}, Factor{Name: "B", Dense: ap.UBV.B},
			Factor{Name: "V", Dense: ap.UBV.V, Transposed: true})
	case ap.SVD != nil:
		return append(dst, Factor{Name: "U", Dense: ap.SVD.U}, Factor{Name: "S", Values: ap.SVD.S},
			Factor{Name: "V", Dense: ap.SVD.V, Transposed: true})
	case ap.RS != nil:
		return append(dst, Factor{Name: "U", Dense: ap.RS.U}, Factor{Name: "S", Values: ap.RS.S},
			Factor{Name: "V", Dense: ap.RS.V, Transposed: true})
	case ap.ARRF != nil:
		return append(dst, Factor{Name: "Q", Dense: ap.ARRF.Q})
	case ap.CUR != nil:
		return append(dst, Factor{Name: "C", Sparse: ap.CUR.C}, Factor{Name: "U", Dense: ap.CUR.U},
			Factor{Name: "R", Sparse: ap.CUR.R})
	}
	return dst
}

// FactorBytes is the resident size of the factors under Factor.Bytes,
// plus 8 bytes per CUR skeleton index.
func (ap *Approximation) FactorBytes() int64 {
	var buf [MaxFactors]Factor
	var n int64
	for _, f := range ap.Factors(buf[:0]) {
		n += f.Bytes()
	}
	if ap.CUR != nil {
		n += int64(len(ap.CUR.RowIdx)+len(ap.CUR.ColIdx)) * 8
	}
	return n
}

// factorEntries sums Entries over the factors: the NNZFactors figure.
func (ap *Approximation) factorEntries() int {
	var buf [MaxFactors]Factor
	n := 0
	for _, f := range ap.Factors(buf[:0]) {
		n += f.Entries()
	}
	return n
}

// TrueError evaluates the exact approximation error ‖A − Â‖_F against
// a, with Â the product of the factor table. A table without dense
// factors (LU's) forms its product sparse and moves its outer
// permutations onto A, giving ‖P_r·A·P_c − L·U‖_F (eq 5 / eq 25). Any
// other table folds into a dense pair Â = left·right that the streamed
// residual reads without densifying A. ARRF's Â = Q·(AᵀQ)ᵀ is the
// documented exception to reading the table alone.
func (ap *Approximation) TrueError(a *sparse.CSR) float64 {
	var buf [MaxFactors]Factor
	fs := ap.Factors(buf[:0])
	var left, right *mat.Dense
	switch {
	case len(fs) == 0:
		return 0
	case ap.ARRF != nil:
		left = ap.ARRF.Q
		if left.Cols > 0 {
			right = a.MulTDense(left).T()
		}
	default:
		if rowPerm, m, colPerm, ok := sparseProduct(fs); ok {
			// Not a itself: a reaches MulTDense, so assigning to it would
			// move PermuteCols' result header to the heap.
			pa := a
			if rowPerm != nil {
				pa = pa.PermuteRows(rowPerm)
			}
			if colPerm != nil {
				pa = pa.PermuteCols(colPerm)
			}
			return sparse.Add(1, pa, -1, m).FrobNorm()
		}
		left, right = denseProduct(fs)
	}
	if left.Cols == 0 {
		return a.FrobNorm() // an empty product leaves all of A
	}
	return a.ResidualFrobNorm(left, right)
}

// Reconstruct forms the factor table's product Â densely, in A's
// coordinates (for inspection at small sizes; O(m·n) memory). It
// returns nil for ARRF, whose product needs A.
func (ap *Approximation) Reconstruct() *mat.Dense {
	var buf [MaxFactors]Factor
	fs := ap.Factors(buf[:0])
	if len(fs) == 0 || ap.ARRF != nil {
		return nil
	}
	rowPerm, m, colPerm, ok := sparseProduct(fs)
	if !ok {
		return mat.Mul(denseProduct(fs))
	}
	// P_rᵀ·M·P_cᵀ moves M's entry (i, j) to (rowPerm[i], colPerm[j]).
	d := mat.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		r := i
		if rowPerm != nil {
			r = rowPerm[i]
		}
		cols, vals := m.RowView(i)
		for k, j := range cols {
			if colPerm != nil {
				j = colPerm[j]
			}
			d.Set(r, j, vals[k])
		}
	}
	return d
}

// sparseProduct splits a table without dense factors into Â =
// P_rᵀ·M·P_cᵀ: the index vectors of a leading transposed permutation and
// a trailing one (nil when absent) and the sparse product M of the
// factors between them. ok is false when the table has a dense factor.
func sparseProduct(fs []Factor) (rowPerm []int, m *sparse.CSR, colPerm []int, ok bool) {
	for _, f := range fs {
		if f.Dense != nil || f.Values != nil {
			return nil, nil, nil, false
		}
	}
	if fs[0].Perm != nil {
		rowPerm, fs = fs[0].Perm, fs[1:]
	}
	if last := fs[len(fs)-1]; last.Perm != nil {
		colPerm, fs = last.Perm, fs[:len(fs)-1]
	}
	m = fs[0].Sparse
	for _, f := range fs[1:] {
		m = sparse.SpGEMM(m, f.Sparse)
	}
	return rowPerm, m, colPerm, true
}

// denseProduct folds a table with a dense factor into Â = left·right:
// right is the last factor (transposed when marked), left the product of
// the others, taken left to right. A sparse first factor meets its dense
// neighbour in one SpMM (CUR's C·U), and a diagonal scales left's
// columns on a copy.
func denseProduct(fs []Factor) (left, right *mat.Dense) {
	last := fs[len(fs)-1]
	switch {
	case last.Sparse != nil:
		right = last.Sparse.ToDense()
	case last.Transposed:
		right = last.Dense.T()
	default:
		right = last.Dense
	}
	mid := fs[1 : len(fs)-1]
	left = fs[0].Dense
	if fs[0].Sparse != nil {
		left, mid = fs[0].Sparse.MulDense(mid[0].Dense), mid[1:]
	}
	for _, f := range mid {
		if f.Values == nil {
			left = mat.Mul(left, f.Dense)
			continue
		}
		left = left.Clone()
		for i := 0; i < left.Rows; i++ {
			row := left.Row(i)
			for j, s := range f.Values {
				row[j] *= s
			}
		}
	}
	return left, right
}

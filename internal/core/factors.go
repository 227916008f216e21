package core

import (
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Factor is one stored factor of an approximation. Exactly one of
// Dense, Sparse and Values is set.
type Factor struct {
	Name   string
	Dense  *mat.Dense
	Sparse *sparse.CSR
	Values []float64 // singular values
}

// Entries counts the factor's stored entries: the nonzeros of a sparse
// factor, rows·cols of a dense one, the length of a value vector.
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
// pointer, 8 per dense entry or value.
func (f Factor) Bytes() int64 {
	if f.Sparse != nil {
		return int64(f.Sparse.NNZ())*12 + int64(f.Sparse.Rows)*4
	}
	return int64(f.Entries()) * 8
}

// Factors appends the approximation's factors to dst in product order
// (L,U · Q,B · U,B,V · U,S,V · Q · C,U,R) and returns the extended
// slice. Passing a [3]Factor array's empty slice keeps the call free of
// allocations.
func (ap *Approximation) Factors(dst []Factor) []Factor {
	switch {
	case ap.LU != nil:
		return append(dst, Factor{Name: "L", Sparse: ap.LU.L}, Factor{Name: "U", Sparse: ap.LU.U})
	case ap.QB != nil:
		return append(dst, Factor{Name: "Q", Dense: ap.QB.Q}, Factor{Name: "B", Dense: ap.QB.B})
	case ap.UBV != nil:
		return append(dst, Factor{Name: "U", Dense: ap.UBV.U}, Factor{Name: "B", Dense: ap.UBV.B},
			Factor{Name: "V", Dense: ap.UBV.V})
	case ap.SVD != nil:
		return append(dst, Factor{Name: "U", Dense: ap.SVD.U}, Factor{Name: "S", Values: ap.SVD.S},
			Factor{Name: "V", Dense: ap.SVD.V})
	case ap.RS != nil:
		return append(dst, Factor{Name: "U", Dense: ap.RS.U}, Factor{Name: "S", Values: ap.RS.S},
			Factor{Name: "V", Dense: ap.RS.V})
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
	var buf [3]Factor
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
	var buf [3]Factor
	n := 0
	for _, f := range ap.Factors(buf[:0]) {
		n += f.Entries()
	}
	return n
}

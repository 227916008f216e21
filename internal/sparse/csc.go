package sparse

import (
	"fmt"

	"sparselr/internal/mat"
)

// CSC is a compressed sparse column matrix. Row indices within each
// column are stored in strictly increasing order. It is the natural
// layout for the column-oriented kernels of QR_TP and COLAMD.
type CSC struct {
	Rows, Cols int
	ColPtr     []int // length Cols+1
	RowIdx     []int // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.Val) }

// Dims returns the matrix dimensions.
func (a *CSC) Dims() (r, c int) { return a.Rows, a.Cols }

// ColView returns the row indices and values of column j, aliasing the
// underlying storage.
func (a *CSC) ColView(j int) (rows []int, vals []float64) {
	s, e := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[s:e], a.Val[s:e]
}

// ColNNZ returns the number of stored entries in column j.
func (a *CSC) ColNNZ(j int) int { return a.ColPtr[j+1] - a.ColPtr[j] }

// ToCSC converts a CSR matrix to CSC in linear time.
func (a *CSR) ToCSC() *CSC {
	t := a.Transpose() // CSR of Aᵀ: its rows are A's columns
	return &CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: t.RowPtr,
		RowIdx: t.ColIdx,
		Val:    t.Val,
	}
}

// ToCSR converts back to CSR in linear time.
func (a *CSC) ToCSR() *CSR {
	asCSR := &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	return asCSR.Transpose()
}

// ExtractColsDense gathers the given columns into a dense Rows×len(cols)
// panel. Cost is proportional to the nonzeros of the selected columns.
func (a *CSC) ExtractColsDense(cols []int) *mat.Dense {
	out := mat.NewDense(a.Rows, len(cols))
	a.scatterCols(out, cols)
	return out
}

// ExtractColsDenseInto is ExtractColsDense into caller-owned storage: dst
// must be Rows×len(cols). It zeroes exactly dst, then scatters the
// selected columns, so a reused buffer yields the same panel as a fresh
// one.
func (a *CSC) ExtractColsDenseInto(dst *mat.Dense, cols []int) {
	if dst.Rows != a.Rows || dst.Cols != len(cols) {
		panic(fmt.Sprintf("sparse: ExtractColsDenseInto destination %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, len(cols)))
	}
	dst.Zero()
	a.scatterCols(dst, cols)
}

// scatterCols writes the entries of the selected columns into the
// zeroed panel out.
func (a *CSC) scatterCols(out *mat.Dense, cols []int) {
	for p, j := range cols {
		if j < 0 || j >= a.Cols {
			panic(fmt.Sprintf("sparse: ExtractColsDense column %d out of range", j))
		}
		rows, vals := a.ColView(j)
		for k, i := range rows {
			out.Data[i*out.Stride+p] = vals[k]
		}
	}
}

// ColsNNZ returns the total number of stored entries across the given
// columns (used for the flop accounting in the virtual-time model).
func (a *CSC) ColsNNZ(cols []int) int {
	n := 0
	for _, j := range cols {
		n += a.ColNNZ(j)
	}
	return n
}

// FrobNorm2 returns the squared Frobenius norm.
func (a *CSC) FrobNorm2() float64 {
	var s float64
	for _, v := range a.Val {
		s += v * v
	}
	return s
}

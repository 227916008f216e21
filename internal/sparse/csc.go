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
	c := new(CSC)
	a.ToCSCInto(c)
	return c
}

// ToCSCInto writes A in CSC form into dst, reusing dst's storage (it
// reallocates only when A outgrows it). It is the one transpose body:
// ToCSC and Transpose run it on fresh storage.
func (a *CSR) ToCSCInto(dst *CSC) {
	nnz := a.NNZ()
	dst.Rows, dst.Cols = a.Rows, a.Cols
	dst.ColPtr = mat.Grow(dst.ColPtr, a.Cols+1)
	dst.RowIdx = mat.Grow(dst.RowIdx, nnz)
	dst.Val = mat.Grow(dst.Val, nnz)
	ptr := dst.ColPtr
	clear(ptr)
	for _, j := range a.ColIdx {
		ptr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		ptr[j+1] += ptr[j]
	}
	// ptr[j] is column j's insertion cursor; after the scatter it points
	// at column j+1's start, and one shift restores the column starts.
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			p := ptr[j]
			dst.RowIdx[p] = i
			dst.Val[p] = vals[k]
			ptr[j]++
		}
	}
	copy(ptr[1:], ptr[:a.Cols])
	ptr[0] = 0
}

// ExtractColsDenseInto gathers the given columns into dst, a
// Rows×len(cols) panel (the kernel feeding dense panel QR in QR_TP). It
// zeroes exactly dst, then scatters the selected columns, so a reused
// buffer yields the same panel as a fresh one; cost is proportional to
// the nonzeros of the selected columns.
func (a *CSC) ExtractColsDenseInto(dst *mat.Dense, cols []int) {
	if dst.Rows != a.Rows || dst.Cols != len(cols) {
		panic(fmt.Sprintf("sparse: ExtractColsDenseInto destination %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, len(cols)))
	}
	dst.Zero()
	for p, j := range cols {
		if j < 0 || j >= a.Cols {
			panic(fmt.Sprintf("sparse: ExtractColsDenseInto column %d out of range", j))
		}
		rows, vals := a.ColView(j)
		for k, i := range rows {
			dst.Data[i*dst.Stride+p] = vals[k]
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

package sparse

import "fmt"

// Builder accumulates matrix entries in coordinate (COO) form and
// finalizes them into CSR. Duplicate entries are summed, matching the
// usual finite-element assembly convention.
type Builder struct {
	rows, cols int
	ri, ci     []int
	v          []float64
}

// NewBuilder returns a COO builder for an r×c matrix.
func NewBuilder(r, c int) *Builder {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %d×%d", r, c))
	}
	return &Builder{rows: r, cols: c}
}

// Add records the entry (i, j) += v. Zero values are recorded too (they
// are eliminated when duplicates are combined only if the sum is zero).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %d×%d", i, j, b.rows, b.cols))
	}
	b.ri = append(b.ri, i)
	b.ci = append(b.ci, j)
	b.v = append(b.v, v)
}

// ToCSR finalizes the builder into a CSR matrix: entries are sorted,
// duplicates summed, and exact-zero sums dropped. Sorting is a two-pass
// stable counting sort (by column, then by row), so assembly is
// O(nnz + rows + cols) instead of O(nnz log nnz) with a comparison sort.
func (b *Builder) ToCSR() *CSR {
	idx := b.sortedIndex()
	out := NewCSR(b.rows, b.cols)
	prevRow, prevCol := -1, -1
	for _, k := range idx {
		r, c, v := b.ri[k], b.ci[k], b.v[k]
		if r == prevRow && c == prevCol {
			out.Val[len(out.Val)-1] += v
			continue
		}
		out.ColIdx = append(out.ColIdx, c)
		out.Val = append(out.Val, v)
		for fill := prevRow + 1; fill <= r; fill++ {
			out.RowPtr[fill] = len(out.Val) - 1
		}
		prevRow, prevCol = r, c
	}
	for fill := prevRow + 1; fill <= b.rows; fill++ {
		out.RowPtr[fill] = len(out.Val)
	}
	// Drop entries whose summed value is exactly zero.
	return compactZeros(out)
}

// sortedIndex returns the entry indices ordered by (row, column) using a
// stable LSD counting sort: first by column, then by row. Entries with
// equal (row, column) keep insertion order, preserving the summation
// order of the previous comparison-sort implementation.
func (b *Builder) sortedIndex() []int {
	n := len(b.v)
	byCol := make([]int, n)
	count := make([]int, max(b.cols, b.rows)+1)
	for _, c := range b.ci {
		count[c]++
	}
	pos := 0
	for c := 0; c < b.cols; c++ {
		count[c], pos = pos, pos+count[c]
	}
	for k, c := range b.ci {
		byCol[count[c]] = k
		count[c]++
	}
	// Second pass: stable counting sort of byCol by row.
	for i := range count {
		count[i] = 0
	}
	for _, r := range b.ri {
		count[r]++
	}
	pos = 0
	for r := 0; r < b.rows; r++ {
		count[r], pos = pos, pos+count[r]
	}
	sorted := make([]int, n)
	for _, k := range byCol {
		r := b.ri[k]
		sorted[count[r]] = k
		count[r]++
	}
	return sorted
}

// compactZeros removes stored entries equal to exactly 0.
func compactZeros(a *CSR) *CSR {
	hasZero := false
	for _, v := range a.Val {
		if v == 0 {
			hasZero = true
			break
		}
	}
	if !hasZero {
		return a
	}
	out := NewCSR(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if vals[k] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, vals[k])
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

package sparse

// ToCSR converts a CSC back to CSR, the reference the conversion and
// Schur tests compare with.
func (a *CSC) ToCSR() *CSR {
	asCSR := &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: a.ColPtr, ColIdx: a.RowIdx, Val: a.Val}
	return asCSR.Transpose()
}

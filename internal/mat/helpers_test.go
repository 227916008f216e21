package mat

// Test-only conveniences: the reference forms the kernel tests compare
// the production kernels with.

// PermuteRows returns P·d where P is described by perm: row i of the
// result is row perm[i] of d.
func (d *Dense) PermuteRows(perm []int) *Dense {
	out := NewDense(d.Rows, d.Cols)
	d.PermuteRowsInto(out, perm)
	return out
}

// PermuteCols returns d·P where column j of the result is column perm[j]
// of d.
func (d *Dense) PermuteCols(perm []int) *Dense {
	out := NewDense(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		src, dst := d.Row(i), out.Row(i)
		for j, p := range perm {
			dst[j] = src[p]
		}
	}
	return out
}

// houseQRUnblocked is the column-at-a-time reference path on a clone of
// a, used by the equivalence tests and benchmarks.
func houseQRUnblocked(a *Dense) *qrFactor {
	m, n := a.Dims()
	f := a.Clone()
	tau := make([]float64, min(m, n))
	houseQRColumns(f, tau, make([]float64, n))
	return &qrFactor{fac: f, tau: tau}
}

// applyQT computes Qᵀ·b in place.
func (qf *qrFactor) applyQT(b *Dense) {
	if len(qf.tau) < qrBlockedMinK {
		s := make([]float64, b.Cols)
		for j := 0; j < len(qf.tau); j++ {
			qf.applyReflector(b, j, s)
		}
		return
	}
	blocks := qf.wyBlocks()
	for p := 0; p < len(blocks); p++ {
		blk := blocks[p]
		applyWY(b.View(blk.j, 0, b.Rows-blk.j, b.Cols), blk.v, blk.t, true)
	}
}

package mat

import "math"

// qrcp is the column-pivoted QR a·P = q·r with Q formed by thinQ: the
// test reference for QRCPSelect's R and pivots and for Orth.
func qrcp(a *Dense) (q, r *Dense, perm []int) {
	m, n := a.Dims()
	k := min(m, n)
	f := a.Clone()
	tau := make([]float64, k)
	perm = make([]int, n)
	qrcpFactor(f, tau, make([]float64, n), make([]float64, n), make([]float64, n), perm)
	return (&qrFactor{fac: f, tau: tau}).thinQ(k), UpperRows(f, k, n), perm
}

// orthRef is Orth written on top of qrcp, independently of
// OrthWorkspace: the rank rule read off r and the leading columns of the
// thinQ-formed Q, cloned.
func orthRef(a *Dense) *Dense {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return NewDense(m, 0)
	}
	q, r, _ := qrcp(a)
	d0 := math.Abs(r.At(0, 0))
	if d0 == 0 {
		return NewDense(m, 0)
	}
	tol := d0 * 1e-13 * float64(max(m, n))
	rank := 0
	for i := 0; i < min(m, n) && math.Abs(r.At(i, i)) > tol; i++ {
		rank++
	}
	return q.View(0, 0, m, rank).Clone()
}

// denseFrom builds an r×c matrix from a row-major slice.
func denseFrom(r, c int, data []float64) *Dense {
	d := NewDense(r, c)
	copy(d.Data, data)
	return d
}

// mulAdd accumulates a·b into dst (dst += a·b): the gemm kernel's
// accumulate path at alpha = +1, which the solvers reach only at −1
// (MulSub).
func mulAdd(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: mulAdd dimension mismatch")
	}
	gemmInto(dst, a, b, 1, true)
}

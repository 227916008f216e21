package mat

import "math"

// OrthWorkspace computes orthonormal range bases with reusable, grow-only
// storage so solver block iterations can re-orthogonalize every step
// without heap traffic. It shares the pivoted-factorization core
// (qrcpFactor) with QRCPSelect and QRCPInPlace; the package-level Orth
// runs it on fresh storage.
//
// A workspace is not safe for concurrent use. The matrix returned by Orth
// is a view into workspace storage and stays valid only until the next
// call on the same workspace; the input of a call may alias the previous
// result (the input is copied out before any buffer is reused).
type OrthWorkspace struct {
	f       Buffer // factored copy of the input
	q       Buffer // explicit thin-Q storage
	tau     []float64
	norms   []float64
	orig    []float64
	scratch []float64
	perm    []int
	qf      qrFactor
	ret     Dense
}

// Grow returns s resized to length n, reallocating only when n exceeds
// its capacity; the contents are unspecified. It is the one grow-only
// slice helper of the workspaces built on this package.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Orth returns an orthonormal basis for the range of a, dropping
// numerically dependent columns: the leading columns of the QRCP's Q
// whose diagonal entry exceeds |R(0,0)|·1e-13·max(m, n). Steady-state
// calls allocate nothing when min(m, n) < qrBlockedMinK (larger inputs
// take the blocked-QR path, which builds its WY panels on the heap,
// exactly as QR does).
func (ws *OrthWorkspace) Orth(a *Dense) *Dense {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return ws.q.Shape(m, 0)
	}
	k := min(m, n)
	// Copy the input before touching q: a may alias the previous result.
	f := ws.f.Shape(m, n)
	f.CopyFrom(a)
	ws.tau = Grow(ws.tau, k)
	ws.norms = Grow(ws.norms, n)
	ws.orig = Grow(ws.orig, n)
	ws.scratch = Grow(ws.scratch, n)
	ws.perm = Grow(ws.perm, n)
	qrcpFactor(f, ws.tau, ws.norms, ws.orig, ws.scratch, ws.perm)
	// Numerical rank from the QRCP diagonal.
	d0 := math.Abs(f.Data[0])
	if d0 == 0 {
		return ws.q.Shape(m, 0)
	}
	tol := d0 * 1e-13 * float64(max(m, n))
	rank := 0
	for i := 0; i < k; i++ {
		if math.Abs(f.Data[i*f.Stride+i]) > tol {
			rank++
		} else {
			break
		}
	}
	// Form thin Q in workspace storage (the thinQ path with pooled scratch).
	e := ws.q.ShapeZero(m, k)
	for i := 0; i < k; i++ {
		e.Data[i*e.Stride+i] = 1
	}
	ws.qf = qrFactor{fac: f, tau: ws.tau}
	ws.qf.applyQScratch(e, ws.scratch)
	ws.ret = Dense{Rows: m, Cols: rank, Stride: e.Stride, Data: e.Data}
	return &ws.ret
}

package mat

// QRWorkspace computes thin Householder QR factorizations with
// reusable, grow-only storage, for solvers that factor a panel every
// iteration. It runs the same in-place core (houseQRInPlace) and the same
// Q formation as QR, so its factors are bitwise those of QR for every
// input. Steady-state calls allocate nothing when min(m, n) <
// qrBlockedMinK; larger inputs take the blocked path, which builds its
// WY panels on the heap exactly as QR does.
//
// A workspace is not safe for concurrent use. The Q returned by QR is
// workspace storage and stays valid only until the next call.
type QRWorkspace struct {
	q   Buffer
	tau []float64
	s   []float64
	qf  qrFactor
}

// QR factors a in place, bit for bit as the package-level QR(a): on
// return the upper triangle of a holds R (R(i, j) = a.At(i, j) for
// j ≥ i) and the reflectors sit below it. It returns the thin
// m×min(m, n) Q in workspace storage.
func (ws *QRWorkspace) QR(a *Dense) *Dense {
	m, n := a.Dims()
	k := min(m, n)
	ws.tau = Grow(ws.tau, k)
	ws.s = Grow(ws.s, n)
	houseQRInPlace(a, ws.tau, ws.s)
	q := ws.q.ShapeZero(m, k)
	for i := 0; i < k; i++ {
		q.Data[i*q.Stride+i] = 1
	}
	ws.qf = qrFactor{fac: a, tau: ws.tau}
	ws.qf.applyQScratch(q, ws.s)
	ws.qf = qrFactor{} // drop the reference to the caller's matrix
	return q
}

// FactorR factors a in place like QR but forms no Q: on return the upper
// triangle of a holds R, bit for bit the R of QR(a).
func (ws *QRWorkspace) FactorR(a *Dense) {
	m, n := a.Dims()
	ws.tau = Grow(ws.tau, min(m, n))
	ws.s = Grow(ws.s, n)
	houseQRInPlace(a, ws.tau, ws.s)
}

package mat

// Flop counts of the dense factorizations, in the closed forms the
// solvers charge to the virtual clock (DESIGN.md §4c). They are the
// leading-order textbook counts (Golub–Van Loan), functions of the
// shapes only; the kernels themselves never read them.

// QRFlops counts a Householder QR, or the QRCP pivot sequence, of an r×c
// matrix without forming Q: 4·r·c·k − 2·(r+c)·k² + 4k³/3, k = min(r, c).
func QRFlops(r, c int) float64 {
	fr, fc, k := float64(r), float64(c), float64(min(r, c))
	return 4*fr*fc*k - 2*(fr+fc)*k*k + 4*k*k*k/3
}

// OrthFlops counts a thin QR of an r×c matrix with its Q formed (Orth,
// QR, QRCP): the factorization plus as much again to accumulate Q.
func OrthFlops(r, c int) float64 { return 2 * QRFlops(r, c) }

// SVDFlops counts a thin SVD of an r×c matrix with both singular-vector
// sets: 6·M·N² + 20·N³, M = max(r, c), N = min(r, c) (the R-SVD count).
func SVDFlops(r, c int) float64 {
	big, small := float64(max(r, c)), float64(min(r, c))
	return 6*big*small*small + 20*small*small*small
}

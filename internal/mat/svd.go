package mat

import (
	"math"
	"sort"
)

// SVD computes a thin singular value decomposition a = U·diag(S)·Vᵀ using
// the one-sided Jacobi method (Hestenes rotations). U is m×r, V is n×r and
// S has length r = min(m, n); singular values are returned in descending
// order. One-sided Jacobi is slower than bidiagonalization-based methods
// but computes even the small singular values to high relative accuracy,
// which the minimum-rank baseline (Figs 2–3 of the paper) depends on.
func SVD(a *Dense) (u *Dense, s []float64, v *Dense) {
	m, n := a.Dims()
	if m < n {
		// Work on the transpose and swap the factors.
		vt, st, ut := SVD(a.T())
		return ut, st, vt
	}
	// w starts as a copy of a; Jacobi rotations orthogonalize its columns.
	// At convergence w = U·diag(S) and vAcc accumulates V.
	w := a.Clone()
	vAcc := Identity(n)
	const maxSweeps = 60
	tol := 1e-15 * float64(m)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2×2 Gram entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					app += wp * wp
					aqq += wq * wq
					apq += wp * wq
				}
				if apq == 0 {
					continue
				}
				denom := math.Sqrt(app * aqq)
				if denom == 0 || math.Abs(apq)/denom <= tol {
					continue
				}
				off += math.Abs(apq) / denom
				// Jacobi rotation annihilating the (p,q) Gram entry.
				zeta := (aqq - app) / (2 * apq)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-sn*wq)
					w.Set(i, q, sn*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp := vAcc.At(i, p)
					vq := vAcc.At(i, q)
					vAcc.Set(i, p, c*vp-sn*vq)
					vAcc.Set(i, q, sn*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Extract singular values as the column norms of w and normalize U.
	s = make([]float64, n)
	u = NewDense(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			v := w.At(i, j)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(i, j, w.At(i, j)/norm)
			}
		}
	}
	// Sort by descending singular value.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
	su := NewDense(m, n)
	sv := NewDense(n, n)
	ss := make([]float64, n)
	for newj, oldj := range idx {
		ss[newj] = s[oldj]
		for i := 0; i < m; i++ {
			su.Set(i, newj, u.At(i, oldj))
		}
		for i := 0; i < n; i++ {
			sv.Set(i, newj, vAcc.At(i, oldj))
		}
	}
	return su, ss, sv
}

// SingularValues returns the singular values of a in descending order.
// Small problems use the one-sided Jacobi SVD (highest relative
// accuracy); larger ones use Householder bidiagonalization followed by
// the Golub–Kahan bidiagonal QR iteration (O(mn²), values only) — the
// classical LAPACK-style path.
func SingularValues(a *Dense) []float64 {
	m, n := a.Dims()
	if m < n {
		return SingularValues(a.T())
	}
	if n <= 48 {
		_, s, _ := SVD(a)
		return s
	}
	return SingularValuesGK(a)
}

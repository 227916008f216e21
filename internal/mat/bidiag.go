package mat

import "math"

// Bidiagonalize reduces a (m ≥ n required) to upper bidiagonal form
// Uᵀ·A·V = B by alternating left and right Householder reflections,
// returning the diagonal d (length n) and superdiagonal e (length n−1).
// Only the values are accumulated (the Golub–Kahan path of the TSVD
// baseline needs singular values, not vectors).
func Bidiagonalize(a *Dense) (d, e []float64) {
	m, n := a.Dims()
	if m < n {
		panic("mat: Bidiagonalize requires m ≥ n (transpose first)")
	}
	f := a.Clone()
	d = make([]float64, n)
	e = make([]float64, max(n-1, 0))
	s := make([]float64, n)
	tau := make([]float64, n)
	for j := 0; j < n; j++ {
		// Left reflector on column j (rows j..m): reuse houseColumn.
		houseColumn(f, j, m, tau, s, n)
		d[j] = f.Data[j*f.Stride+j]
		if j >= n-1 {
			continue
		}
		// Right reflector on row j (columns j+1..n).
		row := f.Row(j)
		var norm float64
		for c := j + 1; c < n; c++ {
			norm += row[c] * row[c]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			e[j] = 0
			continue
		}
		alpha := row[j+1]
		if alpha > 0 {
			norm = -norm
		}
		v0 := alpha - norm
		row[j+1] = norm
		inv := 1 / v0
		for c := j + 2; c < n; c++ {
			row[c] *= inv
		}
		t := -v0 / norm
		e[j] = norm
		// Apply (I − t·v·vᵀ) from the right to rows j+1..m. v has
		// v[j+1] = 1 and v[c] = row[c] for c > j+1.
		for i := j + 1; i < m; i++ {
			ri := f.Row(i)
			sum := ri[j+1]
			for c := j + 2; c < n; c++ {
				sum += row[c] * ri[c]
			}
			sum *= t
			ri[j+1] -= sum
			for c := j + 2; c < n; c++ {
				ri[c] -= sum * row[c]
			}
		}
	}
	return d, e
}

// BidiagonalSVDValues computes the singular values of the upper
// bidiagonal matrix with diagonal d and superdiagonal e using the
// implicit-shift Golub–Kahan QR iteration with deflation. d and e are
// destroyed; the result is returned in descending order.
func BidiagonalSVDValues(d, e []float64) []float64 {
	n := len(d)
	if n == 0 {
		return nil
	}
	if len(e) != n-1 {
		panic("mat: superdiagonal length must be n-1")
	}
	const maxIter = 500
	eps := 1e-15
	for hi := n - 1; hi > 0; {
		converged := false
		for iter := 0; iter < maxIter; iter++ {
			// Deflate negligible superdiagonal entries.
			for i := 0; i < hi; i++ {
				if math.Abs(e[i]) <= eps*(math.Abs(d[i])+math.Abs(d[i+1])) {
					e[i] = 0
				}
			}
			if e[hi-1] == 0 {
				converged = true
				break
			}
			// Find the start of the active block [lo, hi].
			lo := hi - 1
			for lo > 0 && e[lo-1] != 0 {
				lo--
			}
			// Handle a zero diagonal inside the block: rotate the row
			// away (standard dbdsqr treatment approximated by a tiny
			// perturbation, adequate at working precision for the
			// tolerance ranges used here).
			zeroDiag := false
			for i := lo; i <= hi; i++ {
				if d[i] == 0 {
					d[i] = eps * math.Abs(e[min(i, hi-1)])
					zeroDiag = true
				}
			}
			_ = zeroDiag
			golubKahanStep(d, e, lo, hi)
		}
		if !converged {
			// Force deflation after exhausting the iteration budget.
			e[hi-1] = 0
		}
		for hi > 0 && e[hi-1] == 0 {
			hi--
		}
	}
	out := make([]float64, n)
	for i, v := range d {
		out[i] = math.Abs(v)
	}
	// Descending sort (insertion is fine for the sizes involved, but use
	// a simple heapless sort for clarity).
	for i := 1; i < n; i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] < v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

// golubKahanStep performs one implicit-shift QR sweep on the active
// bidiagonal block [lo, hi].
func golubKahanStep(d, e []float64, lo, hi int) {
	// Wilkinson shift from the trailing 2×2 of BᵀB.
	dm := d[hi-1]
	dn := d[hi]
	em := e[hi-1]
	var el float64
	if hi-2 >= lo {
		el = e[hi-2]
	}
	t11 := dm*dm + el*el
	t22 := dn*dn + em*em
	t12 := dm * em
	dd := (t11 - t22) / 2
	var mu float64
	if dd == 0 && t12 == 0 {
		mu = t22
	} else {
		sgn := 1.0
		if dd < 0 {
			sgn = -1
		}
		mu = t22 - t12*t12/(dd+sgn*math.Sqrt(dd*dd+t12*t12))
	}
	y := d[lo]*d[lo] - mu
	z := d[lo] * e[lo]
	for k := lo; k < hi; k++ {
		// Right rotation annihilating z against y.
		c, s := givens(y, z)
		if k > lo {
			e[k-1] = c*y - s*z
		}
		y = c*d[k] - s*e[k]
		e[k] = s*d[k] + c*e[k]
		z = -s * d[k+1]
		d[k+1] = c * d[k+1]
		// Left rotation.
		c, s = givens(y, z)
		d[k] = c*y - s*z
		y = c*e[k] - s*d[k+1]
		d[k+1] = s*e[k] + c*d[k+1]
		if k < hi-1 {
			z = -s * e[k+1]
			e[k+1] = c * e[k+1]
		}
	}
	e[hi-1] = y
}

// givens returns c, s with c·a − s·b = r and s·a + c·b = 0.
func givens(a, b float64) (c, s float64) {
	if b == 0 {
		return 1, 0
	}
	if math.Abs(b) > math.Abs(a) {
		t := -a / b
		s = -1 / math.Sqrt(1+t*t)
		c = s * t
		return c, s
	}
	t := -b / a
	c = 1 / math.Sqrt(1+t*t)
	s = c * t
	return c, s
}

// SingularValuesGK computes singular values via Householder
// bidiagonalization followed by the Golub–Kahan bidiagonal QR iteration —
// the O(mn²) path the TSVD baseline uses for matrices too large for the
// one-sided Jacobi method.
func SingularValuesGK(a *Dense) []float64 {
	m, n := a.Dims()
	if m < n {
		return SingularValuesGK(a.T())
	}
	if n == 0 {
		return nil
	}
	d, e := Bidiagonalize(a)
	return BidiagonalSVDValues(d, e)
}

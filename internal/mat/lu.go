package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve meets an exactly
// or numerically singular pivot.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LUFactor holds a compact LU factorization with partial pivoting:
// P·A = L·U, with L unit-lower-triangular and U upper triangular packed
// into lu, and piv recording the row interchanges applied at each step.
type LUFactor struct {
	lu  *Dense
	piv []int
	n   int
}

// LU computes P·a = L·U with partial pivoting. a must be square.
func LU(a *Dense) (*LUFactor, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("mat: LU of non-square %d×%d matrix", n, c)
	}
	return luInPlace(a.Clone())
}

// luInPlace factors the square matrix f in place.
func luInPlace(f *Dense) (*LUFactor, error) {
	n := f.Rows
	piv := make([]int, n)
	// Numerical singularity threshold relative to the matrix magnitude.
	tol := f.MaxAbs() * float64(n) * 1e-14
	for j := 0; j < n; j++ {
		// Find the pivot row.
		p, pv := j, math.Abs(f.At(j, j))
		for i := j + 1; i < n; i++ {
			if v := math.Abs(f.At(i, j)); v > pv {
				p, pv = i, v
			}
		}
		piv[j] = p
		if pv <= tol {
			return nil, ErrSingular
		}
		if p != j {
			f.SwapRows(j, p)
		}
		d := f.At(j, j)
		for i := j + 1; i < n; i++ {
			l := f.At(i, j) / d
			f.Set(i, j, l)
			if l == 0 {
				continue
			}
			frow, jrow := f.Row(i), f.Row(j)
			for c := j + 1; c < n; c++ {
				frow[c] -= l * jrow[c]
			}
		}
	}
	return &LUFactor{lu: f, piv: piv, n: n}, nil
}

// Solve computes X such that A·X = B for the factored A.
func (f *LUFactor) Solve(b *Dense) *Dense {
	if b.Rows != f.n {
		panic("mat: LU Solve dimension mismatch")
	}
	x := b.Clone()
	// Apply the pivots.
	for j := 0; j < f.n; j++ {
		if f.piv[j] != j {
			x.SwapRows(j, f.piv[j])
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < f.n; i++ {
		lrow := f.lu.Row(i)
		xrow := x.Row(i)
		for k := 0; k < i; k++ {
			l := lrow[k]
			if l == 0 {
				continue
			}
			krow := x.Row(k)
			for c := range xrow {
				xrow[c] -= l * krow[c]
			}
		}
	}
	// Back substitution with the upper triangle.
	for i := f.n - 1; i >= 0; i-- {
		urow := f.lu.Row(i)
		xrow := x.Row(i)
		for k := i + 1; k < f.n; k++ {
			u := urow[k]
			if u == 0 {
				continue
			}
			krow := x.Row(k)
			for c := range xrow {
				xrow[c] -= u * krow[c]
			}
		}
		d := urow[i]
		for c := range xrow {
			xrow[c] /= d
		}
	}
	return x
}

// Solve computes X with a·X = b via LU with partial pivoting.
func Solve(a, b *Dense) (*Dense, error) {
	f, err := LU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveRightInPlace overwrites b with X = b·a⁻¹, the solution of
// X·a = b. It is the Ā₂₁·Ā₁₁⁻¹ kernel of LU_CRTP. It factors aᵀ, its only
// allocation, then runs on each row of b the per-element operation
// sequence of Solve(aᵀ, bᵀ)ᵀ: the same pivot swaps, forward substitution,
// then back substitution. The result is bitwise that transposed solve.
func SolveRightInPlace(b, a *Dense) error {
	n, c := a.Dims()
	if n != c {
		return fmt.Errorf("mat: LU of non-square %d×%d matrix", c, n)
	}
	if b.Cols != n {
		panic("mat: SolveRightInPlace dimension mismatch")
	}
	f, err := luInPlace(a.T())
	if err != nil {
		return err
	}
	for r := 0; r < b.Rows; r++ {
		f.solveTransposedRow(b.Row(r))
	}
	return nil
}

// solveTransposedRow overwrites x with the solution y of A·y = x for the
// factored A: the operations Solve performs on one column of its
// right-hand side, in Solve's order.
func (f *LUFactor) solveTransposedRow(x []float64) {
	for j, p := range f.piv {
		if p != j {
			x[j], x[p] = x[p], x[j]
		}
	}
	for i := 1; i < f.n; i++ {
		lrow := f.lu.Row(i)
		xi := x[i]
		for k := 0; k < i; k++ {
			if l := lrow[k]; l != 0 {
				xi -= l * x[k]
			}
		}
		x[i] = xi
	}
	for i := f.n - 1; i >= 0; i-- {
		urow := f.lu.Row(i)
		xi := x[i]
		for k := i + 1; k < f.n; k++ {
			if u := urow[k]; u != 0 {
				xi -= u * x[k]
			}
		}
		x[i] = xi / urow[i]
	}
}

// SolveUpper solves r·X = b for upper-triangular r by back substitution.
func SolveUpper(r, b *Dense) (*Dense, error) {
	n, c := r.Dims()
	if n != c || b.Rows != n {
		panic("mat: SolveUpper dimension mismatch")
	}
	x := b.Clone()
	for i := n - 1; i >= 0; i-- {
		d := r.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		xrow := x.Row(i)
		rrow := r.Row(i)
		for k := i + 1; k < n; k++ {
			u := rrow[k]
			if u == 0 {
				continue
			}
			krow := x.Row(k)
			for cc := range xrow {
				xrow[cc] -= u * krow[cc]
			}
		}
		for cc := range xrow {
			xrow[cc] /= d
		}
	}
	return x, nil
}

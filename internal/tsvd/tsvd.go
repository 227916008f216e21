package tsvd

import (
	"fmt"
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Result is a truncated SVD A ≈ U·diag(S)·Vᵀ.
type Result struct {
	U *mat.Dense // m×r
	S []float64  // r singular values, descending
	V *mat.Dense // n×r

	Rank  int
	NormA float64
	// TailNorm is √(Σ_{j>r} σⱼ²) = ‖A − Â_r‖_F, exact by Eckart–Young.
	TailNorm float64
}

// FixedRank returns the best rank-k approximation of a, k ≥ 0. It
// charges the dense SVD to c.
func FixedRank(c *dist.Comm, a *sparse.CSR, k int) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("tsvd: empty matrix %d×%d", m, n)
	}
	u, s, v := svd(c, a)
	if k > len(s) {
		k = len(s)
	}
	return truncate(a, u, s, v, k), nil
}

// FixedPrecision returns the minimum-rank truncation with
// ‖A − Â_K‖_F < τ‖A‖_F — the optimum every fixed-precision method in the
// paper is compared against, for τ > 0. It charges the dense SVD to c.
func FixedPrecision(c *dist.Comm, a *sparse.CSR, tol float64) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("tsvd: empty matrix %d×%d", m, n)
	}
	u, s, v := svd(c, a)
	k := MinRank(s, a.FrobNorm(), tol)
	return truncate(a, u, s, v, k), nil
}

// svd is the full SVD of a densified a, charged to c.
func svd(c *dist.Comm, a *sparse.CSR) (*mat.Dense, []float64, *mat.Dense) {
	c.Compute(mat.SVDFlops(a.Dims()), "SVD")
	return mat.SVD(a.ToDense())
}

func truncate(a *sparse.CSR, u *mat.Dense, s []float64, v *mat.Dense, k int) *Result {
	var tail float64
	for j := k; j < len(s); j++ {
		tail += s[j] * s[j]
	}
	return &Result{
		U:        u.View(0, 0, u.Rows, k).Clone(),
		S:        append([]float64(nil), s[:k]...),
		V:        v.View(0, 0, v.Rows, k).Clone(),
		Rank:     k,
		NormA:    a.FrobNorm(),
		TailNorm: math.Sqrt(tail),
	}
}

// MinRank returns the smallest rank r such that the Frobenius tail of the
// spectrum falls below tol·normA. Returns len(sv) when even the full
// spectrum does not (i.e. tol ≤ 0).
func MinRank(sv []float64, normA, tol float64) int {
	// Accumulate the tail from the back for numerical robustness:
	// r = len(sv) trivially satisfies the bound (empty tail); walk
	// backwards to the smallest r that still does.
	bound := tol * normA
	tail := 0.0
	r := len(sv)
	for r > 0 {
		t2 := tail + sv[r-1]*sv[r-1]
		if math.Sqrt(t2) >= bound {
			break
		}
		tail = t2
		r--
	}
	return r
}

// MinRankCurve evaluates the minimum rank for a set of tolerances using
// one SVD (the expensive part) — the right-axis series of Figs 2–3.
func MinRankCurve(a *sparse.CSR, tols []float64) []int {
	sv := mat.SingularValues(a.ToDense())
	normA := a.FrobNorm()
	out := make([]int, len(tols))
	for i, tol := range tols {
		out[i] = MinRank(sv, normA, tol)
	}
	return out
}

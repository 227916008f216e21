package rsvd

import (
	"fmt"
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// oversampling is the number of extra sketch columns per attempt.
const oversampling = 8

// Options configures a restarted-RSVD run.
type Options struct {
	InitialRank int     // starting rank estimate (default 8)
	Power       int     // power-scheme iterations p ∈ [0, 3] (default 0)
	Tol         float64 // τ
	MaxRank     int     // cap (0 = min(m,n))
	Seed        int64
	// Sketch selects the sketching operator (default Gaussian reproduces
	// historical results bit-for-bit); SketchNNZ configures SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int
}

// Result is the truncated randomized SVD meeting the tolerance.
type Result struct {
	U *mat.Dense
	S []float64
	V *mat.Dense

	Rank     int
	Restarts int // number of RSVD attempts (k doublings + 1)
	NormA    float64

	ErrIndicator float64
	Converged    bool
}

// Factor runs the restart loop on a, charging every kernel to c.
func Factor(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("rsvd: empty matrix %d×%d", m, n)
	}
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	normA := a.FrobNorm()
	res := &Result{NormA: normA}

	k := opts.InitialRank
	if k <= 0 {
		k = 8
	}
	for {
		if k > maxRank {
			k = maxRank
		}
		res.Restarts++
		u, s, v, captured, err := onePass(c, a, k, opts)
		if err != nil {
			return nil, err
		}
		// Frobenius indicator: ‖A − QB‖²_F = ‖A‖²_F − ‖B‖²_F.
		ind := math.Sqrt(max(normA*normA-captured, 0))
		res.ErrIndicator = ind
		res.U, res.S, res.V = u, s, v
		res.Rank = len(s)
		if ind < opts.Tol*normA {
			res.Converged = true
			// Trim to the smallest rank that still satisfies the
			// tolerance (the computed SVD makes this cheap).
			res.trim(opts.Tol)
			return res, nil
		}
		if k >= maxRank {
			return res, nil
		}
		k *= 2
	}
}

// onePass computes one randomized SVD attempt at rank k: one RandQB_EI
// block of width k + oversampling (drawn from the stream at opts.Seed,
// with its power scheme), then the SVD of the small B. It returns the
// rank-k factors plus their captured spectral mass Σ σᵢ².
func onePass(c *dist.Comm, a *sparse.CSR, k int, opts Options) (u *mat.Dense, s []float64, v *mat.Dense, captured float64, err error) {
	m, n := a.Dims()
	w := min(k+oversampling, m, n)
	qb, err := randqb.FactorDist(c, a, randqb.Options{
		BlockSize: w, MaxRank: w, Power: opts.Power, Seed: opts.Seed,
		Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
	}, nil)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	c.Compute(mat.SVDFlops(qb.B.Dims()), "SVD")
	ub, sb, vb := mat.SVD(qb.B)
	// Truncate to k: the oversampled tail leaves the captured mass so
	// the indicator reflects the returned rank-k factors.
	kk := min(k, len(sb))
	for _, sv := range sb[:kk] {
		captured += sv * sv
	}
	c.Compute(2*float64(m)*float64(qb.Rank)*float64(kk), "GEMM")
	u = mat.Mul(qb.Q, ub.View(0, 0, ub.Rows, kk).Clone())
	s = append([]float64(nil), sb[:kk]...)
	v = vb.View(0, 0, vb.Rows, kk).Clone()
	return u, s, v, captured, nil
}

// trim reduces the converged factors to the minimum rank that still
// meets the tolerance.
func (r *Result) trim(tol float64) {
	total := r.NormA * r.NormA
	var capturedPrefix float64
	keep := len(r.S)
	for i := 0; i < len(r.S); i++ {
		capturedPrefix += r.S[i] * r.S[i]
		rem := total - capturedPrefix
		if rem < 0 {
			rem = 0
		}
		if math.Sqrt(rem) < tol*r.NormA {
			keep = i + 1
			break
		}
	}
	if keep < len(r.S) {
		r.U = r.U.View(0, 0, r.U.Rows, keep).Clone()
		r.V = r.V.View(0, 0, r.V.Rows, keep).Clone()
		r.S = r.S[:keep]
		r.Rank = keep
		// capturedPrefix summed exactly the kept S in order.
		rem := total - capturedPrefix
		if rem < 0 {
			rem = 0
		}
		r.ErrIndicator = math.Sqrt(rem)
	}
}

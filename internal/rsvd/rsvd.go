package rsvd

import (
	"fmt"
	"math"
	"time"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// oversampling is the number of extra sketch columns per attempt.
const oversampling = 8

// Options configures a restarted-RSVD run.
type Options struct {
	InitialRank int     // starting rank estimate (default 8)
	Power       int     // power-scheme iterations (default 0: none)
	Tol         float64 // τ
	MaxRank     int     // cap (0 = min(m,n))
	Seed        int64
	// Sketch selects the sketching operator (default Gaussian reproduces
	// historical results bit-for-bit); SketchNNZ configures SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int
}

func (o *Options) defaults() {
	if o.InitialRank <= 0 {
		o.InitialRank = 8
	}
	if o.Power < 0 {
		o.Power = 0
	}
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
	TimeHistory  []time.Duration
	RankHistory  []int // attempted k per restart
}

// Factor runs the restart loop on a, charging every kernel to c.
func Factor(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("rsvd: empty matrix %d×%d", m, n)
	}
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	sk := sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ)
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	start := time.Now()

	k := opts.InitialRank
	for {
		if k > maxRank {
			k = maxRank
		}
		res.Restarts++
		res.RankHistory = append(res.RankHistory, k)
		u, s, v, captured := onePass(c, a, k, oversampling, opts.Power, sk)
		// Frobenius indicator: ‖A − QB‖²_F = ‖A‖²_F − ‖B‖²_F.
		rem := normA*normA - captured
		if rem < 0 {
			rem = 0
		}
		ind := math.Sqrt(rem)
		res.TimeHistory = append(res.TimeHistory, time.Since(start))
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

// onePass computes one randomized SVD attempt at rank k and returns the
// factors plus the captured spectral mass Σ‖B‖²_F.
func onePass(c *dist.Comm, a *sparse.CSR, k, oversampling, power int, sk sketch.Sketcher) (u *mat.Dense, s []float64, v *mat.Dense, captured float64) {
	m, n := a.Dims()
	nnz := float64(a.NNZ())
	w := k + oversampling
	if w > min(m, n) {
		w = min(m, n)
	}
	blk := sk.Next(w)
	c.Compute(blk.CostCSR(nnz, m), "SpMM")
	y := blk.MulCSR(a)
	q := orth(c, y)
	for r := 0; r < power; r++ {
		c.Compute(2*nnz*float64(q.Cols), "SpMM")
		z := a.MulTDense(q)
		qz := orth(c, z)
		c.Compute(2*nnz*float64(qz.Cols), "SpMM")
		y = a.MulDense(qz)
		q = orth(c, y)
	}
	// B = Qᵀ·A (small dense), SVD of B.
	c.Compute(2*nnz*float64(q.Cols), "SpMM")
	b := a.MulTDense(q).T()
	c.Compute(mat.SVDFlops(b.Dims()), "SVD")
	ub, sb, vb := mat.SVD(b)
	captured = 0
	for _, sv := range sb {
		captured += sv * sv
	}
	// Truncate to k.
	kk := k
	if kk > len(sb) {
		kk = len(sb)
	}
	c.Compute(2*float64(m)*float64(q.Cols)*float64(kk), "GEMM")
	u = mat.Mul(q, ub.View(0, 0, ub.Rows, kk).Clone())
	s = append([]float64(nil), sb[:kk]...)
	v = vb.View(0, 0, vb.Rows, kk).Clone()
	// The truncation discards the oversampled tail from the captured
	// mass so the indicator reflects the returned rank-k factors.
	for i := kk; i < len(sb); i++ {
		captured -= sb[i] * sb[i]
	}
	return u, s, v, captured
}

// orth is mat.Orth charged as a thin QR with Q formed.
func orth(c *dist.Comm, y *mat.Dense) *mat.Dense {
	c.Compute(mat.OrthFlops(y.Dims()), "orth")
	return mat.Orth(y)
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

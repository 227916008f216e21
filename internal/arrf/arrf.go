package arrf

import (
	"fmt"
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// probeWindow is r, the number of pending probes whose norms the
// stopping test reads.
const probeWindow = 10

// Options configures an ARRF run.
type Options struct {
	Tol     float64 // target: ‖A − QQᵀA‖₂ ≲ Tol·‖A‖_F, relative like every method's
	MaxRank int     // cap (0 = min(m,n))
	Seed    int64
	// Sketch selects the operator drawing the probe vectors (default
	// Gaussian reproduces historical results bit-for-bit); SketchNNZ
	// configures SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int
}

// Result is the adaptive range basis.
type Result struct {
	Q *mat.Dense // m×K orthonormal

	Rank      int
	NormA     float64
	Converged bool
	// ErrBound is the final value of the probabilistic error bound.
	ErrBound float64
	// Probes counts the random probe vectors consumed.
	Probes int
}

// Factor grows the adaptive basis on a, charging every probe and every
// Gram–Schmidt pass to c.
func Factor(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("arrf: empty matrix %d×%d", m, n)
	}
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	sk := sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ)
	nnz := float64(a.NNZ())
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	// The stopping test compares the window maximum against
	// Tol·‖A‖_F / (10·√(2/π)).
	threshold := opts.Tol * normA / (10 * math.Sqrt(2/math.Pi))
	r := probeWindow

	// probe draws one sketch column ω and returns y = A·ω as a fresh
	// vector (the window owns its probes). An m×1 product accumulates per
	// CSR row in the same ascending order as the historical MulVec, so the
	// default Gaussian probes are bit-identical.
	probe := func() []float64 {
		blk := sk.Next(1)
		c.Compute(blk.CostCSR(nnz, m), "SpMM")
		y := mat.NewDense(m, 1)
		blk.MulCSRInto(y, a)
		res.Probes++
		return y.Data
	}

	// Draw the initial window of probe vectors y_i = A·ω_i.
	window := make([][]float64, r)
	for i := range window {
		window[i] = probe()
	}
	var qCols [][]float64
	degenerate := 0 // consecutive probes that projected to roundoff
	basisDot := func(v []float64) {
		// v ← (I − QQᵀ)v with one pass of classical Gram–Schmidt
		// against the current basis.
		c.Compute(4*float64(m)*float64(len(qCols)), "orth")
		for _, q := range qCols {
			d := mat.Dot(q, v)
			mat.Axpy(-d, q, v)
		}
	}
	for {
		// Check the window bound.
		maxNorm := 0.0
		for _, y := range window {
			if nv := mat.Nrm2(y); nv > maxNorm {
				maxNorm = nv
			}
		}
		res.ErrBound = maxNorm * 10 * math.Sqrt(2/math.Pi)
		if maxNorm < threshold {
			res.Converged = true
			break
		}
		if len(qCols) >= maxRank {
			break
		}
		// Take the oldest probe, orthogonalize, normalize into q.
		y := window[0]
		window = window[1:]
		basisDot(y)
		nv := mat.Nrm2(y)
		if nv < 1e-14*normA {
			// Degenerate probe: replace it and continue, unless a whole
			// window of fresh probes has projected to roundoff: then the
			// basis spans A's numerical range and no τ below roundoff
			// can be met.
			if degenerate++; degenerate > r {
				break
			}
			w := probe()
			basisDot(w)
			window = append(window, w)
			continue
		}
		degenerate = 0
		q := make([]float64, m)
		for i := range q {
			q[i] = y[i] / nv
		}
		qCols = append(qCols, q)
		// Draw a replacement probe and project it (Alg 4.2 step 3b),
		// then re-project the remaining window vectors against the new
		// direction (step 3c).
		w := probe()
		basisDot(w)
		window = append(window, w)
		c.Compute(4*float64(m)*float64(len(window)-1), "orth")
		for _, y := range window[:len(window)-1] {
			d := mat.Dot(q, y)
			mat.Axpy(-d, q, y)
		}
	}
	// Pack the basis.
	q := mat.NewDense(m, len(qCols))
	for j, col := range qCols {
		q.SetCol(j, col)
	}
	res.Q = q
	res.Rank = len(qCols)
	return res, nil
}

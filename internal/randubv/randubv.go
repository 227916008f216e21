package randubv

import (
	"fmt"
	"math"
	"time"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// Options configures a RandUBV run.
type Options struct {
	BlockSize int     // k; defaults to 8
	Tol       float64 // τ
	MaxRank   int     // cap on K; 0 means min(m, n)
	Seed      int64
	// Sketch selects the operator drawing the initial Ω (default Gaussian
	// reproduces historical results bit-for-bit); SketchNNZ configures
	// SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int

	// CheckpointEvery > 0 makes each rank save its loop state into
	// Checkpoint at the end of every CheckpointEvery-th iteration; a
	// complete snapshot for the same number of ranks already in
	// Checkpoint resumes the run to a bit-identical result.
	CheckpointEvery int
	Checkpoint      *dist.CheckpointStore
}

func (o *Options) defaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
}

// Result holds the factorization and telemetry.
type Result struct {
	U *mat.Dense // m×K, orthonormal columns
	B *mat.Dense // K×K block upper bidiagonal
	V *mat.Dense // n×K, orthonormal columns

	Rank  int
	Iters int
	NormA float64

	ErrIndicator float64
	Converged    bool
	ErrHistory   []float64
	TimeHistory  []time.Duration
}

// Approx reconstructs U·B·Vᵀ.
func (r *Result) Approx() *mat.Dense {
	return mat.MulBT(mat.Mul(r.U, r.B), r.V)
}

// TrueError computes ‖A − U·B·Vᵀ‖_F exactly by streaming the CSR rows of
// A against the compact factors L = U·B (m×K) and R = Vᵀ (K×n) — A is
// never densified.
func TrueError(a *sparse.CSR, r *Result) float64 {
	return a.ResidualFrobNorm(mat.Mul(r.U, r.B), r.V.T())
}

// Factor runs the randomized block bidiagonalization on a: the SPMD body
// of FactorDist on a one-rank world, where A·V needs no allgather and
// Aᵀ·U no reduction.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	return dist.RunSerial(func(c *dist.Comm) (*Result, error) { return FactorDist(c, a, opts) })
}

// FactorDist runs the randomized block bidiagonalization
//
//	V₁ = orth(Ω);  U₁R₁ = qr(A·V₁)
//	repeat: W = Aᵀ·Uᵢ − Vᵢ·Rᵢᵀ, reorthogonalize W against V₁..ᵢ,
//	        Vᵢ₊₁Sᵢ₊₁ = qr(W),
//	        Uᵢ₊₁Rᵢ₊₁ = qr(A·Vᵢ₊₁ − Uᵢ·Sᵢ₊₁ᵀ)
//
// giving the block bidiagonal B with Rᵢ on the diagonal and Sᵢ₊₁ᵀ on the
// superdiagonal, and the indicator E = √(‖A‖²_F − ‖B‖²_F).
//
// It runs inside a dist.Run body: the distributed RandUBV the paper names
// as future work ("these experiments still motivate the development of an
// efficient parallel implementation of RandUBV", §VI-B). It uses a 1-D
// row split of A: each rank computes its row block of A·V (and its
// partial sum of Aᵀ·U); blocks are allgathered/reduced into replicated
// iterates, and orthogonalization is charged as a TSQR. (The parallel
// RandQB_EI in randqb goes further and keeps Q row-distributed
// throughout; RandUBV is this library's extension, kept in the simpler
// replicated-iterate style.) The sketch comes from the shared seed, so
// every P retraces the same recurrence up to floating-point reassociation;
// at P = 1 the run is the sequential one.
//
// Kernel labels: SpMM, orth/TSQR, GEMM (reorthogonalization), Bupdate.
func FactorDist(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("randubv: empty matrix %d×%d", m, n)
	}
	k := opts.BlockSize
	p := c.Size()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	sk := sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ)
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	lo, hi := dist.RowShare(m, p, c.Rank())
	aLoc := a
	if p > 1 {
		aLoc = a.ExtractBlock(lo, hi, 0, n)
	}
	nnzLoc := float64(aLoc.NNZ())
	mLoc := float64(hi - lo)
	start := time.Now()
	// Reusable workspaces for the recurrence intermediates: the loop
	// shapes them each iteration, so at p == 1 only the QR
	// factorizations allocate in steady state. At p > 1 the products
	// arrive fresh from the collectives instead.
	var yBuf, wBuf, projBuf mat.Buffer

	// mulRows computes the replicated A·x from the ranks' row blocks.
	mulRows := func(x *mat.Dense) *mat.Dense {
		w := x.Cols
		c.Compute(2*nnzLoc*float64(w), "SpMM")
		if p == 1 {
			y := yBuf.Shape(m, w)
			a.MulDenseInto(y, x)
			return y
		}
		parts := c.Allgather(aLoc.MulDense(x), 8*(hi-lo)*w)
		out := parts[0].(*mat.Dense)
		for r := 1; r < p; r++ {
			out = mat.VStack(out, parts[r].(*mat.Dense))
		}
		return out
	}
	// mulT computes the replicated Aᵀ·x as the sum of the ranks'
	// A_locᵀ·x_loc partials.
	mulT := func(x *mat.Dense, kernel string) *mat.Dense {
		w := x.Cols
		c.Compute(2*nnzLoc*float64(w), kernel)
		if p == 1 {
			out := wBuf.Shape(n, w)
			a.MulTDenseInto(out, x)
			return out
		}
		my := aLoc.MulTDense(x.View(lo, 0, hi-lo, w))
		parts := c.Gather(0, my, 8*n*w)
		var sum *mat.Dense
		if c.Rank() == 0 {
			sum = parts[0].(*mat.Dense).Clone()
			for r := 1; r < p; r++ {
				sum.Add(parts[r].(*mat.Dense))
			}
			c.Compute(float64(p-1)*float64(n)*float64(w), kernel)
		}
		return c.Bcast(0, sum, 8*n*w).(*mat.Dense).Clone()
	}
	chargeTSQR := func(rows float64, w int) {
		c.Compute(2*rows/float64(p)*float64(w)*float64(w), "orth/TSQR")
		rounds := 0
		for s := 1; s < p; s <<= 1 {
			rounds++
		}
		for r := 0; r < rounds; r++ {
			c.Compute(4*float64(w)*float64(w)*float64(w), "orth/TSQR")
		}
		if rounds > 0 {
			c.Gather(0, nil, 8*w*w)
			c.Bcast(0, nil, 8*w*w)
		}
	}

	e := normA * normA
	var vi, uPrev, vAll, uAll *mat.Dense
	// B is assembled from per-iteration blocks; block sizes may shrink
	// on deflation, so each block records its widths.
	var blocks []blockPair

	// Resume from the newest complete checkpoint cut, if one exists. The
	// initial sketch is skipped entirely: the restored iterates already
	// embed it, so the RNG is not consulted on a resumed run.
	startIter := 0
	resumed := false
	if opts.Checkpoint != nil {
		if it, states, ok := opts.Checkpoint.Latest(p); ok {
			s := states[c.Rank()].(*ubvSnapshot)
			startIter = it
			resumed = true
			e = s.e
			vi = s.vi.Clone()
			uPrev = s.uPrev.Clone()
			vAll = s.vAll.Clone()
			uAll = s.uAll.Clone()
			blocks = cloneBlocks(s.blocks)
			res.Iters = it
			res.ErrIndicator = s.errIndicator
			res.ErrHistory = append([]float64(nil), s.errHistory...)
			res.TimeHistory = append([]time.Duration(nil), s.timeHistory...)
		}
	}
	if !resumed {
		om := sk.Next(min(k, maxRank)).Dense()
		chargeTSQR(float64(n), om.Cols)
		vi = mat.Orth(om)
		if vi.Cols == 0 {
			return nil, fmt.Errorf("randubv: degenerate initial sketch")
		}
		uPrev = mat.NewDense(m, 0)
		vAll = vi.Clone()
		uAll = mat.NewDense(m, 0)
	}

	for iter := startIter + 1; ; iter++ {
		if c.Tracing() {
			c.Annotate(fmt.Sprintf("RandUBV iter %d", iter))
		}
		// U_i R_i = qr(A·V_i − U_{i-1}·S_iᵀ).
		y := mulRows(vi)
		if uPrev.Cols > 0 && len(blocks) > 0 && blocks[len(blocks)-1].s != nil {
			c.Compute(2*mLoc*float64(uPrev.Cols)*float64(vi.Cols), "GEMM")
			mat.MulSub(y, uPrev, blocks[len(blocks)-1].s.T())
		}
		chargeTSQR(float64(m), y.Cols)
		ui, ri := mat.QR(y)
		// Deflation guard: drop numerically-dependent directions.
		uw := numericalWidth(ri, normA)
		if uw == 0 {
			break
		}
		if uw < ui.Cols {
			ui = ui.View(0, 0, m, uw).Clone()
			ri = ri.View(0, 0, uw, ri.Cols).Clone()
		}
		blocks = append(blocks, blockPair{r: ri, uw: uw, vw: vi.Cols})
		uAll = mat.HStack(uAll, ui)
		e -= ri.FrobNorm2()
		if e < 0 {
			e = 0
		}
		ind := math.Sqrt(e)
		res.ErrHistory = append(res.ErrHistory, ind)
		res.TimeHistory = append(res.TimeHistory, time.Since(start))
		res.Iters = iter
		res.ErrIndicator = ind
		if ind < opts.Tol*normA {
			res.Converged = true
			break
		}
		if uAll.Cols >= maxRank || vAll.Cols >= n || uAll.Cols >= m {
			break
		}
		// W = Aᵀ·U_i − V_i·R_iᵀ, with one-sided reorthogonalization
		// against all previous V blocks.
		w := mulT(ui, "Bupdate")
		c.Compute(2*float64(n)/float64(p)*float64(vi.Cols)*float64(ui.Cols), "GEMM")
		mat.MulSub(w, vi, ri.View(0, 0, ri.Rows, vi.Cols).T())
		c.Compute(4*float64(n)/float64(p)*float64(vAll.Cols)*float64(w.Cols), "GEMM")
		proj := projBuf.Shape(vAll.Cols, w.Cols)
		mat.MulTInto(proj, vAll, w)
		mat.MulSub(w, vAll, proj)
		chargeTSQR(float64(n), w.Cols)
		vNext, sNext := mat.QR(w)
		vw := numericalWidth(sNext, normA)
		if vw == 0 {
			break
		}
		if vw < vNext.Cols {
			vNext = vNext.View(0, 0, n, vw).Clone()
			sNext = sNext.View(0, 0, vw, sNext.Cols).Clone()
		}
		// Cap the V width so rank never exceeds maxRank.
		if vAll.Cols+vw > maxRank {
			vw = maxRank - vAll.Cols
			if vw <= 0 {
				break
			}
			vNext = vNext.View(0, 0, n, vw).Clone()
			sNext = sNext.View(0, 0, vw, sNext.Cols).Clone()
		}
		blocks[len(blocks)-1].s = sNext
		e -= sNext.FrobNorm2()
		if e < 0 {
			e = 0
		}
		vAll = mat.HStack(vAll, vNext)
		uPrev = ui
		vi = vNext
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			opts.Checkpoint.Save(iter, c.Rank(), &ubvSnapshot{
				e:            e,
				vi:           vi.Clone(),
				uPrev:        uPrev.Clone(),
				vAll:         vAll.Clone(),
				uAll:         uAll.Clone(),
				blocks:       cloneBlocks(blocks),
				errIndicator: res.ErrIndicator,
				errHistory:   append([]float64(nil), res.ErrHistory...),
				timeHistory:  append([]time.Duration(nil), res.TimeHistory...),
			})
		}
		// The superdiagonal block also captures approximation energy:
		// re-check convergence so a subsequent deflation cannot strand a
		// converged factorization (A ≈ U·B·Vᵀ already includes S_{i+1}).
		if ind := math.Sqrt(e); ind < opts.Tol*normA {
			res.ErrIndicator = ind
			res.ErrHistory[len(res.ErrHistory)-1] = ind
			res.Converged = true
			break
		}
	}

	res.U = uAll
	res.B = assembleB(blocks, uAll.Cols, vAll.Cols)
	res.V = vAll
	res.Rank = uAll.Cols
	return res, nil
}

// blockPair is one block row of the bidiagonal B under assembly: the
// diagonal R_i, the superdiagonal S_iᵀ (nil for the last block) and the
// numerical widths they contribute.
type blockPair struct {
	r      *mat.Dense // R_i, cols(U_i) × cols(V_i)
	s      *mat.Dense // S_{i+1}: cols(V_{i+1}) × cols(U_i)
	uw, vw int        // widths of U_i and V_i
}

// assembleB builds the ku×kv block bidiagonal B: R_i on the diagonal,
// S_{i+1}ᵀ on the superdiagonal.
func assembleB(blocks []blockPair, ku, kv int) *mat.Dense {
	b := mat.NewDense(ku, kv)
	ro, co := 0, 0
	for _, blk := range blocks {
		// R_i spans rows [ro, ro+uw) and as many columns as it has.
		for i := 0; i < blk.r.Rows; i++ {
			for j := 0; j < blk.r.Cols && co+j < kv; j++ {
				b.Set(ro+i, co+j, blk.r.At(i, j))
			}
		}
		if blk.s != nil {
			// S_{i+1}ᵀ sits right of R_i in the same block rows.
			st := blk.s.T()
			for i := 0; i < st.Rows && i < blk.uw; i++ {
				for j := 0; j < st.Cols && co+blk.vw+j < kv; j++ {
					b.Set(ro+i, co+blk.vw+j, st.At(i, j))
				}
			}
		}
		ro += blk.uw
		co += blk.vw
	}
	return b
}

// ubvSnapshot is one rank's RandUBV loop state at an iteration boundary.
// All fields are deep copies; the iterates are replicated so every rank
// snapshots the same values.
type ubvSnapshot struct {
	e                     float64
	vi, uPrev, vAll, uAll *mat.Dense
	blocks                []blockPair
	errIndicator          float64
	errHistory            []float64
	timeHistory           []time.Duration
}

func cloneBlocks(blocks []blockPair) []blockPair {
	out := make([]blockPair, len(blocks))
	for i, b := range blocks {
		out[i] = blockPair{r: b.r.Clone(), uw: b.uw, vw: b.vw}
		if b.s != nil {
			out[i].s = b.s.Clone()
		}
	}
	return out
}

// numericalWidth counts the leading diagonal entries of an upper
// trapezoidal factor that are numerically significant.
func numericalWidth(r *mat.Dense, scale float64) int {
	w := 0
	lim := min(r.Rows, r.Cols)
	for i := 0; i < lim; i++ {
		if math.Abs(r.At(i, i)) > 1e-13*scale {
			w++
		} else {
			break
		}
	}
	return w
}

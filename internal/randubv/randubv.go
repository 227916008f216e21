package randubv

import (
	"fmt"
	"math"

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
}

// Factor runs the randomized block bidiagonalization on a: the SPMD body
// of FactorDist on a one-rank world, where A·V needs no allgather and
// Aᵀ·U no reduction.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (*Result, error) { return FactorDist(c, a, opts) })
	return r, err
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
	st, err := newUBVState(c, a, opts)
	if err != nil {
		return nil, err
	}
	it, err := st.begin()
	if err != nil {
		return nil, err
	}
	for iter := it + 1; ; iter++ {
		if st.step(iter) {
			break
		}
	}
	return st.finish(), nil
}

// ubvState carries one rank's iterates and reusable workspaces of a
// RandUBV run. V₁..ᵢ live in the grow-only store vAll and vi is the
// newest block (a view of vAll's last columns once the loop has appended
// one). U is kept as its QR blocks, one per block row of B, and
// assembled once at the end: the loop only reads the newest one. Block
// sizes may shrink on deflation, so each block records its widths.
//
// The recurrence intermediates come from the Buffers, and A·V and W are
// factored in place on the two QR workspaces, so a steady-state
// iteration allocates only what it keeps (U_i, R_i and S_{i+1}), at every
// p. At p > 1 the collectives move these rank-owned buffers themselves
// (DESIGN.md §4c).
type ubvState struct {
	c       *dist.Comm
	a, aLoc *sparse.CSR // all of A, and this rank's row block of it
	opts    Options
	sk      sketch.Sketcher

	p, m, n, lo, hi, maxRank int
	nnzLoc, mLoc, normA, e   float64

	vAll   vStore
	vi     *mat.Dense
	blocks []blockPair
	ku     int

	yBuf, locBuf, partBuf, sumBuf, projBuf, tBuf mat.Buffer
	wsU, wsV                                     mat.QRWorkspace

	res *Result
}

func newUBVState(c *dist.Comm, a *sparse.CSR, opts Options) (*ubvState, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("randubv: empty matrix %d×%d", m, n)
	}
	p := c.Size()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	sk := sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ)
	normA := a.FrobNorm()
	lo, hi := dist.RowShare(m, p, c.Rank())
	aLoc := a
	if p > 1 {
		aLoc = a.ExtractBlock(lo, hi, 0, n)
	}
	return &ubvState{
		c: c, a: a, aLoc: aLoc, opts: opts, sk: sk,
		p: p, m: m, n: n, lo: lo, hi: hi, maxRank: maxRank,
		nnzLoc: float64(aLoc.NNZ()), mLoc: float64(hi - lo),
		normA: normA, e: normA * normA,
		vAll: vStore{n: n, maxCap: maxRank},
		res:  &Result{NormA: normA},
	}, nil
}

// mulRows computes the replicated A·x from the ranks' row blocks,
// allgathered straight into yBuf. The Gather/Bcast of the chargeTSQR
// that always follows orders every rank's copy of this rank's block
// before the next mulRows writes locBuf again.
func (st *ubvState) mulRows(x *mat.Dense) *mat.Dense {
	w := x.Cols
	st.c.Compute(2*st.nnzLoc*float64(w), "SpMM")
	y := st.yBuf.Shape(st.m, w)
	if st.p == 1 {
		st.a.MulDenseInto(y, x)
		return y
	}
	yLoc := st.locBuf.Shape(st.hi-st.lo, w)
	st.aLoc.MulDenseInto(yLoc, x)
	return dist.AllgatherRowsInto(st.c, y, yLoc)
}

// mulT computes the replicated Aᵀ·x as the sum of the ranks'
// A_locᵀ·x_loc partials.
func (st *ubvState) mulT(x *mat.Dense, kernel string) *mat.Dense {
	w := x.Cols
	st.c.Compute(2*st.nnzLoc*float64(w), kernel)
	if st.p > 1 {
		x = x.View(st.lo, 0, st.hi-st.lo, w)
	}
	out := st.partBuf.Shape(st.n, w)
	st.aLoc.MulTDenseInto(out, x)
	return dist.SumReduce(st.c, out, &st.sumBuf, kernel)
}

// chargeTSQR charges an orthogonalization of a rows×w replicated block
// as a TSQR over the ranks: local QR, the reduction tree's merges and
// its messages.
func (st *ubvState) chargeTSQR(rows float64, w int) {
	c := st.c
	c.Compute(2*rows/float64(st.p)*float64(w)*float64(w), "orth/TSQR")
	rounds := 0
	for s := 1; s < st.p; s <<= 1 {
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

// begin resumes from the newest complete checkpoint cut, if one exists,
// or draws V₁ = orth(Ω), and returns the iteration the loop continues
// after. A resumed run skips the initial sketch entirely: the restored
// iterates already embed it, so the RNG is not consulted.
func (st *ubvState) begin() (int, error) {
	if st.opts.Checkpoint != nil {
		if it, states, ok := st.opts.Checkpoint.Latest(st.p); ok {
			s := states[st.c.Rank()].(*ubvSnapshot)
			st.e = s.e
			st.vi = s.vi.Clone()
			st.vAll.append(s.v, s.v.Cols)
			st.blocks = cloneBlocks(s.blocks)
			for _, blk := range st.blocks {
				st.ku += blk.uw
			}
			res := st.res
			res.Iters = it
			res.ErrIndicator = s.errIndicator
			res.ErrHistory = append([]float64(nil), s.errHistory...)
			return it, nil
		}
	}
	k := st.opts.BlockSize
	om := st.sk.Next(min(k, st.maxRank)).Dense()
	st.chargeTSQR(float64(st.n), om.Cols)
	st.vi = mat.Orth(om)
	if st.vi.Cols == 0 {
		return 0, fmt.Errorf("randubv: degenerate initial sketch")
	}
	st.vAll.grow(min(2*k, st.maxRank))
	st.vAll.append(st.vi, st.vi.Cols)
	return 0, nil
}

// step runs one iteration of the recurrence and reports whether the loop
// is done.
func (st *ubvState) step(iter int) bool {
	c, m, n, normA, res := st.c, st.m, st.n, st.normA, st.res
	if c.Tracing() {
		c.Annotate(fmt.Sprintf("RandUBV iter %d", iter))
	}
	vi := st.vi
	// U_i R_i = qr(A·V_i − U_{i-1}·S_iᵀ).
	y := st.mulRows(vi)
	if len(st.blocks) > 0 && st.blocks[len(st.blocks)-1].s != nil {
		prev := st.blocks[len(st.blocks)-1]
		c.Compute(2*st.mLoc*float64(prev.u.Cols)*float64(vi.Cols), "GEMM")
		mat.MulSub(y, prev.u, prev.s.TInto(st.tBuf.Shape(prev.s.Cols, prev.s.Rows)))
	}
	st.chargeTSQR(float64(m), y.Cols)
	// y is factored in place: R_i sits in its upper triangle.
	uq := st.wsU.QR(y)
	// Deflation guard: drop numerically-dependent directions.
	uw := numericalWidth(y, normA)
	if uw == 0 {
		return true
	}
	ui := uq.View(0, 0, m, uw).Clone()
	ri := mat.UpperRows(y, uw, y.Cols)
	st.blocks = append(st.blocks, blockPair{u: ui, r: ri, uw: uw, vw: vi.Cols})
	st.ku += uw
	st.e -= ri.FrobNorm2()
	if st.e < 0 {
		st.e = 0
	}
	ind := math.Sqrt(st.e)
	res.ErrHistory = append(res.ErrHistory, ind)
	res.Iters = iter
	res.ErrIndicator = ind
	if ind < st.opts.Tol*normA {
		res.Converged = true
		return true
	}
	if st.ku >= st.maxRank || st.vAll.cols >= n || st.ku >= m {
		return true
	}
	// W = Aᵀ·U_i − V_i·R_iᵀ, with one-sided reorthogonalization
	// against all previous V blocks.
	w := st.mulT(ui, "Bupdate")
	c.Compute(2*float64(n)/float64(st.p)*float64(vi.Cols)*float64(ui.Cols), "GEMM")
	mat.MulSub(w, vi, ri.TInto(st.tBuf.Shape(ri.Cols, ri.Rows)))
	c.Compute(4*float64(n)/float64(st.p)*float64(st.vAll.cols)*float64(w.Cols), "GEMM")
	vK := st.vAll.view()
	proj := st.projBuf.Shape(vK.Cols, w.Cols)
	mat.MulTInto(proj, vK, w)
	mat.MulSub(w, vK, proj)
	st.chargeTSQR(float64(n), w.Cols)
	// w is factored in place: S_{i+1} sits in its upper triangle.
	vq := st.wsV.QR(w)
	vw := numericalWidth(w, normA)
	if vw == 0 {
		return true
	}
	// Cap the V width so rank never exceeds maxRank.
	if st.vAll.cols+vw > st.maxRank {
		vw = st.maxRank - st.vAll.cols
		if vw <= 0 {
			return true
		}
	}
	sNext := mat.UpperRows(w, vw, w.Cols)
	st.blocks[len(st.blocks)-1].s = sNext
	st.e -= sNext.FrobNorm2()
	if st.e < 0 {
		st.e = 0
	}
	st.vi = st.vAll.append(vq, vw)
	if st.opts.Checkpoint != nil && st.opts.CheckpointEvery > 0 && iter%st.opts.CheckpointEvery == 0 {
		st.opts.Checkpoint.Save(iter, c.Rank(), &ubvSnapshot{
			e:            st.e,
			vi:           st.vi.Clone(),
			v:            st.vAll.view().Clone(),
			blocks:       cloneBlocks(st.blocks),
			errIndicator: res.ErrIndicator,
			errHistory:   append([]float64(nil), res.ErrHistory...),
		})
	}
	// The superdiagonal block also captures approximation energy:
	// re-check convergence so a subsequent deflation cannot strand a
	// converged factorization (A ≈ U·B·Vᵀ already includes S_{i+1}).
	if ind := math.Sqrt(st.e); ind < st.opts.Tol*normA {
		res.ErrIndicator = ind
		res.ErrHistory[len(res.ErrHistory)-1] = ind
		res.Converged = true
		return true
	}
	return false
}

// finish assembles the factors from the blocks and the V store.
func (st *ubvState) finish() *Result {
	res := st.res
	res.U = assembleU(st.blocks, st.m, st.ku)
	res.B = assembleB(st.blocks, st.ku, st.vAll.cols)
	res.V = st.vAll.view().Clone()
	res.Rank = st.ku
	return res
}

// vStore is the grow-only basis V₁..ᵢ: an n×capV panel (stride capV)
// whose first cols columns are filled. The reorthogonalization GEMMs read
// it as one strided matrix, and it doubles when full, so appending K
// columns in all copies O(n·K) values rather than re-stacking V every
// iteration.
type vStore struct {
	n, cols, capV, maxCap int
	data                  []float64
	hdr, newest           mat.Dense
}

// grow makes room for at least k columns, doubling up to maxCap.
func (s *vStore) grow(k int) {
	if k <= s.capV {
		return
	}
	newCap := max(min(2*s.capV, s.maxCap), k)
	data := make([]float64, s.n*newCap)
	for i := 0; i < s.n; i++ {
		copy(data[i*newCap:i*newCap+s.cols], s.data[i*s.capV:i*s.capV+s.cols])
	}
	s.data, s.capV = data, newCap
}

// append copies the first w columns of the n-row block x into the next
// columns and returns a view of them (valid until the next append).
func (s *vStore) append(x *mat.Dense, w int) *mat.Dense {
	s.grow(s.cols + w)
	for i := 0; i < s.n; i++ {
		copy(s.data[i*s.capV+s.cols:], x.Row(i)[:w])
	}
	s.newest = mat.Dense{Rows: s.n, Cols: w, Stride: s.capV, Data: s.data[s.cols:]}
	s.cols += w
	return &s.newest
}

// view returns the n×cols filled part (valid until the next append).
func (s *vStore) view() *mat.Dense {
	s.hdr = mat.Dense{Rows: s.n, Cols: s.cols, Stride: s.capV, Data: s.data}
	return &s.hdr
}

// assembleU concatenates the U blocks into the m×ku basis.
func assembleU(blocks []blockPair, m, ku int) *mat.Dense {
	u := mat.NewDense(m, ku)
	co := 0
	for _, blk := range blocks {
		for i := 0; i < m; i++ {
			copy(u.Row(i)[co:co+blk.uw], blk.u.Row(i))
		}
		co += blk.uw
	}
	return u
}

// blockPair is one block row of the bidiagonal B under assembly: the
// basis block U_i, the diagonal R_i, the superdiagonal S_iᵀ (nil for the
// last block) and the numerical widths they contribute.
type blockPair struct {
	u      *mat.Dense // U_i, m × cols(U_i)
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

// ubvSnapshot is one rank's RandUBV loop state at an iteration boundary:
// the newest V block, the filled V store compacted to n×K, and the block
// rows of B with their U blocks. All fields are deep copies; the iterates
// are replicated so every rank snapshots the same values.
type ubvSnapshot struct {
	e            float64
	vi, v        *mat.Dense
	blocks       []blockPair
	errIndicator float64
	errHistory   []float64
}

func cloneBlocks(blocks []blockPair) []blockPair {
	out := make([]blockPair, len(blocks))
	for i, b := range blocks {
		out[i] = blockPair{u: b.u.Clone(), r: b.r.Clone(), uw: b.uw, vw: b.vw}
		if b.s != nil {
			out[i].s = b.s.Clone()
		}
	}
	return out
}

// numericalWidth counts the leading diagonal entries of an upper
// trapezoidal factor that are numerically significant. It reads only the
// diagonal, so a panel factored in place (R above its reflectors) works.
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

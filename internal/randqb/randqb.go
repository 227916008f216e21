package randqb

import (
	"fmt"
	"math"
	"time"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// IndicatorBreakdownTol is the double-precision validity limit of the
// error indicator: Theorem 3 of Yu et al. shows eq (4) fails for
// τ < 2.1·10⁻⁷.
const IndicatorBreakdownTol = 2.1e-7

// Options configures a RandQB_EI run.
type Options struct {
	BlockSize int     // k; defaults to 8
	Tol       float64 // τ
	Power     int     // p ∈ [0, 3]: power-scheme iterations per block
	MaxRank   int     // cap on K; 0 means min(m, n)
	Seed      int64   // PRNG seed for the sketches
	// Sketch selects the sketching operator (default Gaussian reproduces
	// historical results bit-for-bit); SketchNNZ configures SparseSign.
	Sketch    sketch.Kind
	SketchNNZ int
	// TrackOrthLoss records ‖Q_KᵀQ_K − I‖∞ after the first and the last
	// iteration (§VI-B reports its growth from ~1e-15..1e-14 upward).
	TrackOrthLoss bool

	// CheckpointEvery > 0 makes each rank save its loop state into
	// Checkpoint at the end of every CheckpointEvery-th iteration. When
	// Checkpoint already holds a complete snapshot (from a faulted run)
	// for the same number of ranks, the run resumes from it and
	// reproduces the uninterrupted result bit-identically.
	CheckpointEvery int
	Checkpoint      *dist.CheckpointStore
}

func (o *Options) defaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
	if o.Power < 0 || o.Power > 3 {
		panic(fmt.Sprintf("randqb: power parameter %d outside [0,3]", o.Power))
	}
}

// Result holds the factorization output and telemetry.
type Result struct {
	Q *mat.Dense // m×K, orthonormal columns
	B *mat.Dense // K×n

	Rank  int
	Iters int
	NormA float64

	ErrIndicator float64 // final E⁽ⁱ⁾ (eq 4)
	Converged    bool
	// IndicatorUnreliable is set when τ < 2.1e-7 (Theorem 3 regime).
	IndicatorUnreliable bool

	ErrHistory  []float64
	TimeHistory []time.Duration

	OrthLossFirst float64 // ‖QᵀQ−I‖∞ after iteration 1
	OrthLossLast  float64 // ... after the final iteration
}

// Approx reconstructs the dense approximation Q_K·B_K.
func (r *Result) Approx() *mat.Dense { return mat.Mul(r.Q, r.B) }

// TrueError computes ‖A − Q_K·B_K‖_F exactly (eq 3) by streaming the CSR
// rows of A against the factors — O(nnz + mk) extra memory, A is never
// densified.
func TrueError(a *sparse.CSR, r *Result) float64 {
	return a.ResidualFrobNorm(r.Q, r.B)
}

// MinRank returns the smallest rank r ≤ K such that the best rank-r
// truncation of Q_K·B_K satisfies the tolerance — the "approximated
// minimum rank" of Figs 2–3, determined at small cost from the singular
// values of B_K (§VI-B).
func (r *Result) MinRank(tol float64) int {
	if r.B.IsEmpty() {
		return 0
	}
	sv := mat.SingularValues(r.B)
	normA2 := r.NormA * r.NormA
	captured := 0.0
	for i, s := range sv {
		captured += s * s
		rem := normA2 - captured
		if rem < 0 {
			rem = 0
		}
		if math.Sqrt(rem) < tol*r.NormA {
			return i + 1
		}
	}
	return r.Rank
}

// Factor runs Algorithm 1 on a: the SPMD body of FactorDist on a
// one-rank world, where every collective is the identity and the row
// block of A is all of A.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults() // an invalid Power panics here, in the caller
	return dist.RunSerial(func(c *dist.Comm) (*Result, error) { return FactorDist(c, a, opts) })
}

// FactorDist runs RandQB_EI inside a dist.Run body in a genuinely
// distributed layout, mirroring §V's Elemental setup: A and the growing
// basis Q_K are 1-D row-distributed (each rank stores only its m/P rows —
// the El::Multiply layout), B_K is replicated (K×n is the small side),
// orthogonalization is a real communication-avoiding TSQR whose global Q
// is never materialized (El::qr::ExplicitTS), and the Q_KᵀA / AᵀQ_k
// products are partial-sum reductions across ranks.
//
// The sketches come from the shared seed, so every P retraces the same
// recurrence up to floating-point reassociation of the partial sums; at
// P = 1 there are no partial sums and the run is the sequential one.
//
// Kernel labels (Fig 6): SpMM (sparse A times dense blocks), orth/TSQR,
// GEMM (projection corrections), Bupdate (B_k = Q_kᵀA plus its reduce).
func FactorDist(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	st, err := newQBState(c, a, opts)
	if err != nil {
		return nil, err
	}
	for iter := st.resume() + 1; ; iter++ {
		if st.step(iter) {
			break
		}
	}
	return st.finish(), nil
}

// qbState carries one rank's grow-only factor stores and reusable
// workspaces of a RandQB_EI run. The rank's row panel of Q_K lives in
// qData as an mLoc×capK panel (stride capK), the replicated B_K in bData
// as contiguous K rows of length n, and — only under the power scheme —
// B_Kᵀ in btData as an n×capK panel, maintained incrementally so no
// transpose is ever re-materialized in the loop.
//
// Intermediates come from scratch: the Buffers at p == 1, where a
// steady-state block iteration allocates nothing, and fresh matrices at
// p > 1, where a collective may hand them to another rank.
type qbState struct {
	c    *dist.Comm
	a    *sparse.CSR // this rank's row block of A (all of A when p == 1)
	opts Options
	sk   sketch.Sketcher

	p, m, n, maxRank int
	mLoc             int     // rows of this rank's block
	nlo, nhi         int     // this rank's share of the inner dimension n
	nnzLoc           float64 // nonzeros of this rank's block
	e                float64 // running E = ‖A‖²_F − Σ‖B_k‖²_F
	kCur             int     // current K (columns of Q_K)
	capK             int

	qData, bData, btData []float64
	qHdr, bHdr, btHdr    mat.Dense // reusable view headers

	wsQ, wsQh            mat.OrthWorkspace
	y, bom, qh, proj, bt mat.Buffer

	res   *Result
	start time.Time
}

func newQBState(c *dist.Comm, a *sparse.CSR, opts Options) (*qbState, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("randqb: empty matrix %d×%d", m, n)
	}
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}
	normA := a.FrobNorm()
	res := &Result{NormA: normA}
	if opts.Tol > 0 && opts.Tol < IndicatorBreakdownTol {
		res.IndicatorUnreliable = true
	}
	iterCap := maxRank/opts.BlockSize + 2
	res.ErrHistory = make([]float64, 0, iterCap)
	res.TimeHistory = make([]time.Duration, 0, iterCap)
	p := c.Size()
	lo, hi := dist.RowShare(m, p, c.Rank())
	nlo, nhi := dist.RowShare(n, p, c.Rank())
	aLoc := a
	if p > 1 {
		aLoc = a.ExtractBlock(lo, hi, 0, n)
	}
	st := &qbState{
		c: c, a: aLoc, opts: opts,
		sk: sketch.New(opts.Sketch, n, opts.Seed, opts.SketchNNZ),
		p:  p, m: m, n: n, maxRank: maxRank,
		mLoc: hi - lo, nlo: nlo, nhi: nhi,
		nnzLoc: float64(aLoc.NNZ()),
		e:      normA * normA,
		res:    res, start: time.Now(),
	}
	st.ensureCap(min(2*opts.BlockSize, maxRank))
	return st, nil
}

// ensureCap grows the factor stores to hold at least k columns of Q_K
// (rows of B_K), doubling so growth cost amortizes away.
func (st *qbState) ensureCap(k int) {
	if k <= st.capK {
		return
	}
	newCap := max(st.capK*2, k)
	if newCap > st.maxRank {
		newCap = st.maxRank
	}
	q := make([]float64, st.mLoc*newCap)
	for i := 0; i < st.mLoc; i++ {
		copy(q[i*newCap:i*newCap+st.kCur], st.qData[i*st.capK:i*st.capK+st.kCur])
	}
	b := make([]float64, newCap*st.n)
	copy(b, st.bData[:st.kCur*st.n])
	st.qData, st.bData = q, b
	if st.opts.Power > 0 {
		bt := make([]float64, st.n*newCap)
		for i := 0; i < st.n; i++ {
			copy(bt[i*newCap:i*newCap+st.kCur], st.btData[i*st.capK:i*st.capK+st.kCur])
		}
		st.btData = bt
	}
	st.capK = newCap
}

// qKView returns the mLoc×K view of the Q store (valid until ensureCap).
func (st *qbState) qKView() *mat.Dense {
	st.qHdr = mat.Dense{Rows: st.mLoc, Cols: st.kCur, Stride: st.capK, Data: st.qData}
	return &st.qHdr
}

// bKView returns the K×n view of the B store.
func (st *qbState) bKView() *mat.Dense {
	st.bHdr = mat.Dense{Rows: st.kCur, Cols: st.n, Stride: st.n, Data: st.bData[:st.kCur*st.n]}
	return &st.bHdr
}

// btKView returns the n×K view of the Bᵀ store (power scheme only).
func (st *qbState) btKView() *mat.Dense {
	st.btHdr = mat.Dense{Rows: st.n, Cols: st.kCur, Stride: st.capK, Data: st.btData}
	return &st.btHdr
}

// scratch returns an r×c intermediate with unspecified contents.
func (st *qbState) scratch(buf *mat.Buffer, r, c int) *mat.Dense {
	if st.p == 1 {
		return buf.Shape(r, c)
	}
	return mat.NewDense(r, c)
}

// sumReduce adds the per-rank partials of a replicated product: gather
// at the root, sum, broadcast. The result is safe to mutate; at p == 1 it
// is the partial itself.
func (st *qbState) sumReduce(partial *mat.Dense, kernel string) *mat.Dense {
	c, p := st.c, st.p
	if p == 1 {
		return partial
	}
	bytes := 8 * partial.Rows * partial.Cols
	parts := c.Gather(0, partial, bytes)
	var sum *mat.Dense
	if c.Rank() == 0 {
		sum = parts[0].(*mat.Dense).Clone()
		for r := 1; r < p; r++ {
			sum.Add(parts[r].(*mat.Dense))
		}
		c.Compute(float64(p-1)*float64(partial.Rows)*float64(partial.Cols), kernel)
	}
	return c.Bcast(0, sum, bytes).(*mat.Dense).Clone()
}

// mulB computes the replicated B_K·x (x is n×w) by splitting the inner
// dimension across ranks and reducing.
func (st *qbState) mulB(x *mat.Dense) *mat.Dense {
	bK := st.bKView()
	st.c.Compute(2*float64(bK.Rows)*float64(st.nhi-st.nlo)*float64(x.Cols), "GEMM")
	if st.p == 1 {
		out := st.bom.Shape(bK.Rows, x.Cols)
		mat.MulInto(out, bK, x)
		return out
	}
	partial := mat.Mul(
		bK.View(0, st.nlo, bK.Rows, st.nhi-st.nlo),
		x.View(st.nlo, 0, st.nhi-st.nlo, x.Cols),
	)
	return st.sumReduce(partial, "GEMM")
}

// sketchB is mulB against the current sketch block: each rank applies
// its inner-dimension slice of Ω through the structure-aware kernel and
// the partials reduce. For the Gaussian kind both the values and the
// virtual-clock charges match mulB on the dense Ω exactly.
func (st *qbState) sketchB(blk sketch.Block) *mat.Dense {
	_, w := blk.Dims()
	bK := st.bKView()
	st.c.Compute(blk.CostDense(bK.Rows, st.nlo, st.nhi), "GEMM")
	out := st.scratch(&st.bom, bK.Rows, w)
	if st.p == 1 {
		blk.MulDenseInto(out, bK)
		return out
	}
	blk.MulDenseRangeInto(out, bK, st.nlo, st.nhi)
	return st.sumReduce(out, "GEMM")
}

// projQK computes the replicated Q_Kᵀ·x for a row-distributed x.
func (st *qbState) projQK(x *mat.Dense) *mat.Dense {
	st.c.Compute(2*float64(st.mLoc)*float64(st.kCur)*float64(x.Cols), "GEMM")
	proj := st.scratch(&st.proj, st.kCur, x.Cols)
	mat.MulTInto(proj, st.qKView(), x)
	return st.sumReduce(proj, "GEMM")
}

// correct computes yLoc -= Q_K,loc·s for a replicated small s.
func (st *qbState) correct(yLoc, s *mat.Dense) {
	st.c.Compute(2*float64(st.mLoc)*float64(st.kCur)*float64(s.Cols), "GEMM")
	mat.MulSub(yLoc, st.qKView(), s)
}

// step runs one block iteration (lines 4–14 of Algorithm 1) and reports
// whether the loop is done.
func (st *qbState) step(iter int) bool {
	c := st.c
	if c.Tracing() {
		c.Annotate(fmt.Sprintf("RandQB iter %d", iter))
	}
	if st.kCur >= st.maxRank {
		return true
	}
	kEff := min(st.opts.BlockSize, st.maxRank-st.kCur)
	// Line 4: draw the sketch block.
	blk := st.sk.Next(kEff)
	// Line 5: Q_k = orth(A·Ω − Q_K(B_K·Ω)), all row-local.
	c.Compute(blk.CostCSR(st.nnzLoc, st.mLoc), "SpMM")
	y := st.scratch(&st.y, st.mLoc, kEff)
	blk.MulCSRInto(y, st.a)
	if st.kCur > 0 {
		st.correct(y, st.sketchB(blk))
	}
	qk := distTSQRLocal(c, y, st.m, "orth/TSQR", &st.wsQ)
	// Lines 6–9: power scheme on (AAᵀ)ᵖ.
	for r := 0; r < st.opts.Power; r++ {
		// Q̂ = orth(AᵀQ_k − B_Kᵀ(Q_KᵀQ_k)).
		c.Compute(2*st.nnzLoc*float64(qk.Cols), "SpMM")
		qh := st.scratch(&st.qh, st.n, qk.Cols)
		st.a.MulTDenseInto(qh, qk)
		qh = st.sumReduce(qh, "SpMM")
		if st.kCur > 0 {
			proj := st.projQK(qk)
			c.Compute(2*float64(st.n)/float64(st.p)*float64(st.kCur)*float64(proj.Cols), "GEMM")
			mat.MulSub(qh, st.btKView(), proj)
		}
		qhat := distTSQR(c, qh, "orth/TSQR", &st.wsQh)
		// Q_k = orth(A·Q̂ − Q_K(B_K·Q̂)).
		c.Compute(2*st.nnzLoc*float64(qhat.Cols), "SpMM")
		y2 := st.scratch(&st.y, st.mLoc, qhat.Cols)
		st.a.MulDenseInto(y2, qhat)
		if st.kCur > 0 {
			st.correct(y2, st.mulB(qhat))
		}
		qk = distTSQRLocal(c, y2, st.m, "orth/TSQR", &st.wsQ)
	}
	// Line 10: re-orthogonalization against Q_K.
	if st.kCur > 0 {
		st.correct(qk, st.projQK(qk))
		qk = distTSQRLocal(c, qk, st.m, "orth/TSQR", &st.wsQ)
	}
	if qk.Cols == 0 {
		// The sketch found no new directions: the range is captured.
		return true
	}
	kc := qk.Cols
	// Line 11: B_k = Q_kᵀ·A, computed as (Aᵀ·Q_k)ᵀ to exploit CSR: each
	// rank's Q_k,locᵀ·A_loc, reduced.
	c.Compute(2*st.nnzLoc*float64(kc), "Bupdate")
	bt := st.scratch(&st.bt, st.n, kc)
	st.a.MulTDenseInto(bt, qk)
	bt = st.sumReduce(bt, "Bupdate")
	// Line 12: expand the stores in place.
	st.ensureCap(st.kCur + kc)
	for i := 0; i < st.mLoc; i++ {
		copy(st.qData[i*st.capK+st.kCur:], qk.Row(i))
	}
	for j := 0; j < st.n; j++ {
		btRow := bt.Row(j)
		for i := 0; i < kc; i++ {
			st.bData[(st.kCur+i)*st.n+j] = btRow[i]
		}
	}
	if st.opts.Power > 0 {
		for j := 0; j < st.n; j++ {
			copy(st.btData[j*st.capK+st.kCur:], bt.Row(j))
		}
	}
	bkNew := mat.Dense{Rows: kc, Cols: st.n, Stride: st.n, Data: st.bData[st.kCur*st.n : (st.kCur+kc)*st.n]}
	st.kCur += kc
	// Lines 13–14: error indicator update and test.
	st.e -= bkNew.FrobNorm2()
	if st.e < 0 {
		st.e = 0
	}
	ind := math.Sqrt(st.e)
	res := st.res
	res.ErrHistory = append(res.ErrHistory, ind)
	res.TimeHistory = append(res.TimeHistory, time.Since(st.start))
	res.Iters = iter
	res.ErrIndicator = ind
	if st.opts.TrackOrthLoss {
		qK := st.qKView()
		gram := st.sumReduce(mat.MulT(qK, qK), "GEMM")
		gram.Sub(mat.Identity(qK.Cols))
		loss := gram.InfNorm()
		if iter == 1 {
			res.OrthLossFirst = loss
		}
		res.OrthLossLast = loss
	}
	if st.opts.Checkpoint != nil && st.opts.CheckpointEvery > 0 && iter%st.opts.CheckpointEvery == 0 {
		st.opts.Checkpoint.Save(iter, c.Rank(), &qbSnapshot{
			draws:         st.sk.Draws(),
			e:             st.e,
			qK:            st.qKView().Clone(),
			bK:            st.bKView().Clone(),
			errIndicator:  res.ErrIndicator,
			errHistory:    append([]float64(nil), res.ErrHistory...),
			timeHistory:   append([]time.Duration(nil), res.TimeHistory...),
			orthLossFirst: res.OrthLossFirst,
			orthLossLast:  res.OrthLossLast,
		})
	}
	if ind < st.opts.Tol*res.NormA {
		res.Converged = true
		return true
	}
	return false
}

// qbSnapshot is one rank's RandQB_EI loop state at an iteration
// boundary: the rank-local basis panel, the replicated B_K, the error
// recurrence and the RNG draw count (so a resume redraws the same
// sketches). All fields are deep copies.
type qbSnapshot struct {
	draws         int
	e             float64
	qK, bK        *mat.Dense
	errIndicator  float64
	errHistory    []float64
	timeHistory   []time.Duration
	orthLossFirst float64
	orthLossLast  float64
}

// resume restores the newest complete checkpoint cut, if one exists, and
// returns its iteration (0 for a fresh run). The sketch stream is
// fast-forwarded by the recorded draw count so the remaining sketches are
// the ones the uninterrupted run would have drawn.
func (st *qbState) resume() int {
	if st.opts.Checkpoint == nil {
		return 0
	}
	it, states, ok := st.opts.Checkpoint.Latest(st.p)
	if !ok {
		return 0
	}
	s := states[st.c.Rank()].(*qbSnapshot)
	st.ensureCap(s.bK.Rows)
	st.kCur = s.bK.Rows
	st.qKView().CopyFrom(s.qK)
	copy(st.bData, s.bK.Data)
	if st.opts.Power > 0 {
		st.btKView().CopyFrom(s.bK.T())
	}
	st.e = s.e
	res := st.res
	res.Iters = it
	res.ErrIndicator = s.errIndicator
	res.ErrHistory = append(res.ErrHistory[:0], s.errHistory...)
	res.TimeHistory = append(res.TimeHistory[:0], s.timeHistory...)
	res.OrthLossFirst = s.orthLossFirst
	res.OrthLossLast = s.orthLossLast
	st.sk.FastForward(s.draws)
	return it
}

// finish compacts the factors out of the strided stores. The full Q is
// assembled on every rank: the library result is a plain factorization;
// only the run itself is distributed.
func (st *qbState) finish() *Result {
	qK := st.qKView().Clone()
	if st.p > 1 {
		parts := st.c.Allgather(qK, 8*qK.Rows*qK.Cols)
		qK = parts[0].(*mat.Dense)
		for r := 1; r < st.p; r++ {
			qK = mat.VStack(qK, parts[r].(*mat.Dense))
		}
	}
	st.res.Q = qK
	st.res.B = st.bKView().Clone()
	st.res.Rank = st.kCur
	return st.res
}

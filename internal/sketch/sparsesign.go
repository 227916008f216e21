package sketch

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// sparseSignSketcher draws sparse-sign embeddings: each row of Ω holds
// s = min(nnzPerRow, k) entries of value ±1/√s in distinct columns. The
// column set comes from a partial Fisher–Yates shuffle and the sign from
// the top bit of the same Uint64 draw, so each row consumes exactly s
// canonical variates — the property FastForward relies on.
type sparseSignSketcher struct {
	n     int
	s0    int // requested nonzeros per row
	rng   *rand.Rand
	draws int
	idx   []int
	val   []float64
	perm  []int
	blk   sparseSignBlock
}

func newSparseSign(n int, seed int64, nnzPerRow int) *sparseSignSketcher {
	return &sparseSignSketcher{n: n, s0: nnzPerRow, rng: rand.New(rand.NewSource(seed))}
}

func (g *sparseSignSketcher) Draws() int { return g.draws }

func (g *sparseSignSketcher) FastForward(d int) {
	for i := 0; i < d; i++ {
		g.rng.Uint64()
	}
	g.draws += d
}

func (g *sparseSignSketcher) Next(k int) Block {
	s := g.s0
	if s > k {
		s = k
	}
	if s < 1 {
		s = 1
	}
	need := g.n * s
	if cap(g.idx) < need {
		g.idx = make([]int, need)
		g.val = make([]float64, need)
	}
	g.idx = g.idx[:need]
	g.val = g.val[:need]
	if cap(g.perm) < k {
		g.perm = make([]int, k)
	}
	g.perm = g.perm[:k]
	inv := 1 / math.Sqrt(float64(s))
	for row := 0; row < g.n; row++ {
		for t := range g.perm {
			g.perm[t] = t
		}
		base := row * s
		for t := 0; t < s; t++ {
			u := g.rng.Uint64()
			r := t + int(u%uint64(k-t))
			g.perm[t], g.perm[r] = g.perm[r], g.perm[t]
			g.idx[base+t] = g.perm[t]
			if u>>63 == 0 {
				g.val[base+t] = inv
			} else {
				g.val[base+t] = -inv
			}
		}
	}
	g.draws += need
	g.blk = sparseSignBlock{n: g.n, k: k, s: s, idx: g.idx, val: g.val}
	return &g.blk
}

// sparseSignBlock applies Ω through its (idx, val) row lists: entry t of
// row j sits at column idx[j·s+t] with value val[j·s+t].
type sparseSignBlock struct {
	n, k, s int
	idx     []int
	val     []float64
}

func (b *sparseSignBlock) Dims() (int, int) { return b.n, b.k }

func (b *sparseSignBlock) MulCSR(a *sparse.CSR) *mat.Dense {
	dst := mat.NewDense(a.Rows, b.k)
	b.mulCSRBody(dst, a)
	return dst
}

// MulCSRInto computes dst = A·Ω by scattering each stored a_ij into the s
// sketch columns of Ω's row j: O(nnz(A)·s) work, no dense Ω ever formed,
// and A read exactly once — each output row is zeroed inside the same
// traversal that fills it, so there is no separate dst.Zero() pass over
// the output. Parallel work is split by nnz-balanced row ranges (the
// partitioner shared with internal/sparse); each output row is written by
// one worker in the serial order, so results are GOMAXPROCS-independent.
func (b *sparseSignBlock) MulCSRInto(dst *mat.Dense, a *sparse.CSR) {
	if a.Cols != b.n || dst.Rows != a.Rows || dst.Cols != b.k {
		panic("sketch: SparseSign MulCSRInto dimension mismatch")
	}
	b.mulCSRBody(dst, a)
}

func (b *sparseSignBlock) mulCSRBody(dst *mat.Dense, a *sparse.CSR) {
	// Both paths are allocation-free in steady state: the parallel one
	// runs a pooled job instead of a per-call closure.
	if a.NNZ()*b.s < applyParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		b.mulCSRRows(dst, a, 0, a.Rows)
		return
	}
	j := signCSRJobs.Get().(*signCSRJob)
	j.b, j.dst, j.a = b, dst, a
	a.ParallelRowsByNNZ(j.rows)
	j.b, j.dst, j.a = nil, nil, nil
	signCSRJobs.Put(j)
}

// signCSRJob binds mulCSRBody's operands to a pooled row body, so the
// parallel apply forms no closure per call.
type signCSRJob struct {
	b    *sparseSignBlock
	dst  *mat.Dense
	a    *sparse.CSR
	rows func(lo, hi int) // mulRows bound once per pooled job
}

var signCSRJobs = sync.Pool{New: func() any {
	j := new(signCSRJob)
	j.rows = j.mulRows
	return j
}}

func (j *signCSRJob) mulRows(lo, hi int) { j.b.mulCSRRows(j.dst, j.a, lo, hi) }

func (b *sparseSignBlock) mulCSRRows(dst *mat.Dense, a *sparse.CSR, lo, hi int) {
	for i := lo; i < hi; i++ {
		cols, vals := a.RowView(i)
		drow := dst.Row(i)
		for c := range drow {
			drow[c] = 0
		}
		for t, j := range cols {
			av := vals[t]
			base := j * b.s
			for q := base; q < base+b.s; q++ {
				drow[b.idx[q]] += av * b.val[q]
			}
		}
	}
}

func (b *sparseSignBlock) MulDenseInto(dst *mat.Dense, x *mat.Dense) {
	b.MulDenseRangeInto(dst, x, 0, b.n)
}

func (b *sparseSignBlock) MulDenseRangeInto(dst *mat.Dense, x *mat.Dense, lo, hi int) {
	if x.Cols != b.n || dst.Rows != x.Rows || dst.Cols != b.k {
		panic("sketch: SparseSign MulDenseRangeInto dimension mismatch")
	}
	if x.Rows*(hi-lo)*b.s < applyParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		b.mulDenseRows(dst, x, lo, hi, 0, x.Rows)
		return
	}
	mat.ParallelFor(x.Rows, applyRowGrain, func(rlo, rhi int) {
		b.mulDenseRows(dst, x, lo, hi, rlo, rhi)
	})
}

func (b *sparseSignBlock) mulDenseRows(dst *mat.Dense, x *mat.Dense, lo, hi, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		xrow := x.Row(r)
		drow := dst.Row(r)
		for c := range drow {
			drow[c] = 0
		}
		for j := lo; j < hi; j++ {
			xv := xrow[j]
			if xv == 0 {
				continue
			}
			base := j * b.s
			for q := base; q < base+b.s; q++ {
				drow[b.idx[q]] += xv * b.val[q]
			}
		}
	}
}

func (b *sparseSignBlock) Dense() *mat.Dense {
	om := mat.NewDense(b.n, b.k)
	for j := 0; j < b.n; j++ {
		row := om.Row(j)
		base := j * b.s
		for q := base; q < base+b.s; q++ {
			row[b.idx[q]] = b.val[q]
		}
	}
	return om
}

func (b *sparseSignBlock) CostCSR(nnz float64, rows int) float64 {
	return 2 * nnz * float64(b.s)
}

func (b *sparseSignBlock) CostDense(rows, lo, hi int) float64 {
	return 2 * float64(rows) * float64(hi-lo) * float64(b.s)
}

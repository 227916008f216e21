package sketch

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// srttSketcher draws subsampled randomized trig transforms in compressed
// form. The operator factors as
//
//	Ω = C · D · H · S · (1/√k)
//
// with C an n×kp CountSketch (one ±1 per row, kp = nextPow2(k) buckets),
// D a random ±1 diagonal on the buckets, H the kp×kp (unnormalized)
// Walsh–Hadamard transform and S a uniform subsample of k of the kp
// columns. Applying Ω to a vector costs O(nnz + kp·log kp): the
// CountSketch collapses the n input coordinates onto kp buckets and the
// FWHT mixes every bucket into every output column, so the composite
// keeps the spectral-mixing property of a trig transform at sparse cost.
// The 1/√k scale makes E‖xᵀΩ‖² = ‖x‖² (C, D are isometries in
// expectation, H inflates norms by kp, the subsample keeps k/kp of them).
//
// Each Next(k) consumes exactly n + kp + k Uint64 variates (bucket+sign
// per row, diagonal sign per bucket, subsample draw per output column).
type srttSketcher struct {
	n      int
	rng    *rand.Rand
	draws  int
	bucket []int
	bsign  []float64
	diag   []float64
	cols   []int
	perm   []int
	blk    srttBlock
}

func newSRTT(n int, seed int64) *srttSketcher {
	return &srttSketcher{n: n, rng: rand.New(rand.NewSource(seed))}
}

func (g *srttSketcher) Draws() int { return g.draws }

func (g *srttSketcher) FastForward(d int) {
	for i := 0; i < d; i++ {
		g.rng.Uint64()
	}
	g.draws += d
}

func nextPow2(k int) int {
	if k <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(k-1))
}

func (g *srttSketcher) Next(k int) Block {
	kp := nextPow2(k)
	if cap(g.bucket) < g.n {
		g.bucket = make([]int, g.n)
		g.bsign = make([]float64, g.n)
	}
	g.bucket = g.bucket[:g.n]
	g.bsign = g.bsign[:g.n]
	if cap(g.diag) < kp {
		g.diag = make([]float64, kp)
		g.perm = make([]int, kp)
	}
	g.diag = g.diag[:kp]
	g.perm = g.perm[:kp]
	if cap(g.cols) < k {
		g.cols = make([]int, k)
	}
	g.cols = g.cols[:k]
	for j := 0; j < g.n; j++ {
		u := g.rng.Uint64()
		g.bucket[j] = int(u % uint64(kp))
		if u>>63 == 0 {
			g.bsign[j] = 1
		} else {
			g.bsign[j] = -1
		}
	}
	for q := 0; q < kp; q++ {
		if g.rng.Uint64()>>63 == 0 {
			g.diag[q] = 1
		} else {
			g.diag[q] = -1
		}
	}
	for q := range g.perm {
		g.perm[q] = q
	}
	for t := 0; t < k; t++ {
		u := g.rng.Uint64()
		r := t + int(u%uint64(kp-t))
		g.perm[t], g.perm[r] = g.perm[r], g.perm[t]
		g.cols[t] = g.perm[t]
	}
	g.draws += g.n + kp + k
	g.blk = srttBlock{
		n: g.n, k: k, kp: kp,
		bucket: g.bucket, bsign: g.bsign, diag: g.diag, cols: g.cols,
		scale: 1 / math.Sqrt(float64(k)),
	}
	return &g.blk
}

type srttBlock struct {
	n, k, kp int
	bucket   []int
	bsign    []float64
	diag     []float64
	cols     []int
	scale    float64
}

func (b *srttBlock) Dims() (int, int) { return b.n, b.k }

// fwht runs the in-place unnormalized fast Walsh–Hadamard transform on a
// power-of-two-length buffer.
func fwht(t []float64) {
	n := len(t)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := t[j], t[j+h]
				t[j], t[j+h] = x+y, x-y
			}
		}
	}
}

// tail applies the shared pipeline suffix to an accumulated bucket row:
// sign diagonal, FWHT, column subsample and scale into out.
func (b *srttBlock) tail(t []float64, out []float64) {
	for q := range t {
		t[q] *= b.diag[q]
	}
	fwht(t)
	for c, q := range b.cols {
		out[c] = t[q] * b.scale
	}
}

func (b *srttBlock) MulCSR(a *sparse.CSR) *mat.Dense {
	dst := mat.NewDense(a.Rows, b.k)
	b.mulCSRBody(dst, a)
	return dst
}

func (b *srttBlock) MulCSRInto(dst *mat.Dense, a *sparse.CSR) {
	if a.Cols != b.n || dst.Rows != a.Rows || dst.Cols != b.k {
		panic("sketch: SRTT MulCSRInto dimension mismatch")
	}
	b.mulCSRBody(dst, a)
}

func (b *srttBlock) mulCSRBody(dst *mat.Dense, a *sparse.CSR) {
	body := func(lo, hi int) {
		buf := mat.GetScratch(b.kp)
		t := *buf
		for i := lo; i < hi; i++ {
			for q := range t {
				t[q] = 0
			}
			cols, vals := a.RowView(i)
			for q, j := range cols {
				t[b.bucket[j]] += b.bsign[j] * vals[q]
			}
			b.tail(t, dst.Row(i))
		}
		mat.PutScratch(buf)
	}
	lg := bits.TrailingZeros(uint(b.kp))
	if a.NNZ()+a.Rows*b.kp*(lg+1) < applyParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		body(0, a.Rows)
		return
	}
	mat.ParallelFor(a.Rows, applyRowGrain, body)
}

func (b *srttBlock) MulDenseInto(dst *mat.Dense, x *mat.Dense) {
	b.MulDenseRangeInto(dst, x, 0, b.n)
}

func (b *srttBlock) MulDenseRangeInto(dst *mat.Dense, x *mat.Dense, lo, hi int) {
	if x.Cols != b.n || dst.Rows != x.Rows || dst.Cols != b.k {
		panic("sketch: SRTT MulDenseRangeInto dimension mismatch")
	}
	body := func(rlo, rhi int) {
		buf := mat.GetScratch(b.kp)
		t := *buf
		for r := rlo; r < rhi; r++ {
			for q := range t {
				t[q] = 0
			}
			xrow := x.Row(r)
			for j := lo; j < hi; j++ {
				if xv := xrow[j]; xv != 0 {
					t[b.bucket[j]] += b.bsign[j] * xv
				}
			}
			b.tail(t, dst.Row(r))
		}
		mat.PutScratch(buf)
	}
	lg := bits.TrailingZeros(uint(b.kp))
	if x.Rows*((hi-lo)+b.kp*(lg+1)) < applyParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		body(0, x.Rows)
		return
	}
	mat.ParallelFor(x.Rows, applyRowGrain, body)
}

func (b *srttBlock) Dense() *mat.Dense {
	om := mat.NewDense(b.n, b.k)
	t := make([]float64, b.kp)
	for j := 0; j < b.n; j++ {
		for q := range t {
			t[q] = 0
		}
		t[b.bucket[j]] = b.bsign[j]
		b.tail(t, om.Row(j))
	}
	return om
}

func (b *srttBlock) CostCSR(nnz float64, rows int) float64 {
	lg := float64(bits.TrailingZeros(uint(b.kp)))
	return 2*nnz + 2*float64(rows)*float64(b.kp)*(lg+1)
}

func (b *srttBlock) CostDense(rows, lo, hi int) float64 {
	lg := float64(bits.TrailingZeros(uint(b.kp)))
	return 2*float64(rows)*float64(hi-lo) + 2*float64(rows)*float64(b.kp)*(lg+1)
}

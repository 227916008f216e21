package sketch

import (
	"math/rand"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// gaussianSketcher replays the historical dense-Gaussian stream: every
// Next(k) fills an n×k block row-major from rand.NormFloat64, exactly the
// sequence the solvers drew before the sketch layer existed, so default
// results are bit-identical across the refactor.
type gaussianSketcher struct {
	n     int
	rng   *rand.Rand
	draws int
	buf   mat.Buffer
	blk   gaussianBlock
}

func newGaussian(n int, seed int64) *gaussianSketcher {
	return &gaussianSketcher{n: n, rng: rand.New(rand.NewSource(seed))}
}

func (g *gaussianSketcher) Draws() int { return g.draws }

func (g *gaussianSketcher) FastForward(d int) {
	for i := 0; i < d; i++ {
		g.rng.NormFloat64()
	}
	g.draws += d
}

func (g *gaussianSketcher) Next(k int) Block {
	om := g.buf.Shape(g.n, k)
	for i := range om.Data {
		om.Data[i] = g.rng.NormFloat64()
	}
	g.draws += g.n * k
	g.blk = gaussianBlock{om: om}
	return &g.blk
}

// gaussianBlock wraps the dense Ω; all applies defer to the shared GEMM /
// SpMM kernels, so values (and the parallel/serial branching) are exactly
// those of the pre-sketch-layer code.
type gaussianBlock struct {
	om *mat.Dense
}

func (b *gaussianBlock) Dims() (int, int) { return b.om.Rows, b.om.Cols }

func (b *gaussianBlock) MulCSR(a *sparse.CSR) *mat.Dense { return a.MulDense(b.om) }

func (b *gaussianBlock) MulCSRInto(dst *mat.Dense, a *sparse.CSR) {
	a.MulDenseInto(dst, b.om)
}

func (b *gaussianBlock) MulDenseInto(dst *mat.Dense, x *mat.Dense) {
	mat.MulInto(dst, x, b.om)
}

func (b *gaussianBlock) MulDenseRangeInto(dst *mat.Dense, x *mat.Dense, lo, hi int) {
	mat.MulInto(dst, x.View(0, lo, x.Rows, hi-lo), b.om.View(lo, 0, hi-lo, b.om.Cols))
}

func (b *gaussianBlock) Dense() *mat.Dense { return b.om.Clone() }

// CostCSR matches the historical SpMM charge 2·nnz·k exactly (same
// expression, same evaluation order), keeping default virtual clocks
// bit-identical.
func (b *gaussianBlock) CostCSR(nnz float64, rows int) float64 {
	return 2 * nnz * float64(b.om.Cols)
}

// CostDense matches the historical GEMM charge 2·rows·(hi−lo)·k.
func (b *gaussianBlock) CostDense(rows, lo, hi int) float64 {
	return 2 * float64(rows) * float64(hi-lo) * float64(b.om.Cols)
}

package sketch

import (
	"fmt"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Kind selects a sketching operator family.
type Kind int

const (
	// Gaussian is the dense N(0,1) sketch (the default; bit-identical to
	// the historical per-solver Gaussian fill).
	Gaussian Kind = iota
	// SparseSign is the s-nonzeros-per-row ±1/√s sketch.
	SparseSign
	// SRTT is the subsampled randomized trig transform sketch.
	SRTT
)

// String names the kind as the CLI flags spell it.
func (k Kind) String() string {
	switch k {
	case Gaussian:
		return "gaussian"
	case SparseSign:
		return "sparsesign"
	case SRTT:
		return "srtt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a CLI spelling of a sketch kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "gaussian", "gauss", "dense", "":
		return Gaussian, nil
	case "sparsesign", "sparse", "sign":
		return SparseSign, nil
	case "srtt", "srht", "trig":
		return SRTT, nil
	}
	return 0, fmt.Errorf("sketch: unknown kind %q (want gaussian, sparsesign or srtt)", s)
}

// Block is one drawn sketch Ω ∈ ℝ^{n×k}, exposed through structure-aware
// apply kernels rather than as a dense matrix. A Block returned by
// Sketcher.Next aliases the sketcher's internal storage and stays valid
// only until the next Next call on that sketcher.
type Block interface {
	// Dims returns (n, k).
	Dims() (n, k int)
	// MulCSR returns A·Ω for CSR A (m×n).
	MulCSR(a *sparse.CSR) *mat.Dense
	// MulCSRInto computes dst = A·Ω, overwriting the m×k dst.
	MulCSRInto(dst *mat.Dense, a *sparse.CSR)
	// MulDenseInto computes dst = X·Ω for dense X (r×n), overwriting the
	// r×k dst.
	MulDenseInto(dst *mat.Dense, x *mat.Dense)
	// MulDenseRangeInto computes dst = X[:, lo:hi]·Ω[lo:hi, :] — the
	// inner-dimension-restricted product SPMD ranks reduce over.
	MulDenseRangeInto(dst *mat.Dense, x *mat.Dense, lo, hi int)
	// Dense materializes Ω (diagnostics and tests; allocates).
	Dense() *mat.Dense
	// CostCSR returns the virtual-clock flop charge for A·Ω given
	// nnz(A) and the row count of A.
	CostCSR(nnz float64, rows int) float64
	// CostDense returns the flop charge for X[:, lo:hi]·Ω[lo:hi, :]
	// given the row count of X.
	CostDense(rows, lo, hi int) float64
}

// Sketcher is a seeded, deterministic stream of sketch blocks.
// Implementations are not safe for concurrent use; SPMD ranks each
// construct their own from the shared seed.
type Sketcher interface {
	// Next draws the next n×k block. The result aliases sketcher storage
	// and is invalidated by the following Next call.
	Next(k int) Block
	// Draws returns the number of canonical RNG variates consumed so far
	// (NormFloat64 calls for Gaussian, Uint64 calls otherwise).
	Draws() int
	// FastForward advances the stream by d canonical variates, as if that
	// many had been consumed by earlier Next calls (checkpoint resume).
	FastForward(d int)
}

// DefaultSparseNNZ is the per-row nonzero count used by SparseSign when
// the caller leaves it unset.
const DefaultSparseNNZ = 8

// New builds a sketcher for n-row blocks from a seed. nnzPerRow
// configures SparseSign (entries per Ω row, capped at the block width k;
// ≤ 0 means DefaultSparseNNZ) and is ignored by the other kinds.
func New(kind Kind, n int, seed int64, nnzPerRow int) Sketcher {
	if n < 0 {
		panic(fmt.Sprintf("sketch: negative dimension %d", n))
	}
	if nnzPerRow <= 0 {
		nnzPerRow = DefaultSparseNNZ
	}
	switch kind {
	case Gaussian:
		return newGaussian(n, seed)
	case SparseSign:
		return newSparseSign(n, seed, nnzPerRow)
	case SRTT:
		return newSRTT(n, seed)
	}
	panic(fmt.Sprintf("sketch: unknown kind %v", kind))
}

// applyParallelThreshold is the multiply-add count below which the
// structured apply kernels stay serial (mirrors the sparse SpMM
// threshold).
const applyParallelThreshold = 1 << 15

// applyRowGrain is the row-chunk size of the parallel apply kernels.
const applyRowGrain = 64

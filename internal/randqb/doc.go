// Package randqb implements RandQB_EI (Yu, Gu, Li 2018), the randomized
// fixed-precision QB factorization of Algorithm 1 in the paper: an
// incremental randomized range finder with the cheap Frobenius error
// indicator E⁽ⁱ⁾ = √(‖A‖²_F − Σ‖B_k⁽ʲ⁾‖²_F) (eq 4), optional power
// iterations (the power scheme, p ∈ [0,3]) and re-orthogonalization.
//
// The factors Q_K (m×K, orthonormal columns) and B_K (K×n) are dense by
// construction — the structural contrast with LU_CRTP's sparse factors
// that drives the paper's accuracy-vs-cost comparison.
//
// The algorithm is written once, as the SPMD body FactorDist; the
// sequential Factor runs that body on a one-rank world. The iteration
// loop runs on a qbState: grow-only stores for the rank's rows of Q_K,
// the replicated B_K and (under the power scheme) B_Kᵀ, plus reusable
// workspaces for every intermediate, so at P = 1 a steady-state block
// iteration performs no heap allocation. The default Gaussian sketch
// replays the historical RNG stream and the kernels are
// evaluation-order stable, so results are bit-identical to the
// pre-workspace implementation.
package randqb

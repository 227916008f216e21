// Package lucrtp implements the deterministic fixed-precision low-rank
// approximation of the paper: the truncated LU factorization with column
// and row tournament pivoting (LU_CRTP, Algorithm 2) and its incomplete
// variant with thresholding (ILUT_CRTP, Algorithm 3).
//
// The factorization produces sparse truncated factors L_K (m×K) and
// U_K (K×n) and permutations P_r, P_c with P_r·A·P_c ≈ L_K·U_K, growing K
// in blocks of k until the error indicator ‖A⁽ⁱ⁺¹⁾‖_F (eq 9) — or, for
// ILUT_CRTP, ‖Ã⁽ⁱ⁺¹⁾‖_F (eq 26) — falls below τ‖A‖_F.
//
// The algorithm is written once, as the SPMD body FactorDist; the
// sequential Factor runs that body on a one-rank world, where the
// triangular solve and the Schur update read whole blocks instead of
// row shares. Each rank owns one grow-only iteration workspace, so a warm
// iteration allocates only what it keeps: the Schur complement, the
// factor entries and the k×k blocks.
package lucrtp

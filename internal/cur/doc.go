// Package cur implements the skeleton-factor method family: randomized
// CUR, the two-sided interpolative decomposition (ID), and adaptive
// cross approximation (ACA) with partial pivoting.
//
// All three produce an approximation A ≈ C·U·R whose outer factors are
// actual columns (C = A(:,J)) and rows (R = A(I,:)) of the input — they
// inherit A's sparsity, so a rank-k result stores two index vectors, a
// small k×k dense core, and O(k) sparse rows/columns rather than two
// dense m×k / k×n panels. The variants differ only in how the skeleton
// (I, J) is chosen and how the core U is computed:
//
//   - CUR: RandQB_EI (randqb.FactorDist) grows a basis Q_K, B_K to τ;
//     the columns are the first K QRCP pivots of B_K and the rows those
//     of Q_Kᵀ; core U = C⁺AR⁺ solved through two blocked Householder
//     QRs.
//   - ID2 (two-sided ID): CUR's column selection, then row selection
//     from a second QRCP pass on the selected columns; core
//     U = A(I,J)⁻¹, the skeleton inverse.
//   - ACA: no sketching at all — partial-pivoted cross approximation
//     walks residual rows and columns of the CSR structure directly,
//     never materializing a dense residual.
//
// CUR and ID2 accept a skeleton when its exact streamed residual
// (sparse.CSR.ResidualFrobNorm — A is never densified) is within
// τ·‖A‖_F; on a miss RandQB_EI's basis grows by one block and selection
// runs again. The package has no range finder of its own. It follows
// the repo's solver contracts: seeded determinism (identical options
// produce bit-identical factors independent of GOMAXPROCS),
// fixed-precision stopping against τ·‖A‖_F on the exact residual, and
// a Result shape mirroring randqb/rsvd so core can expose it uniformly.
// Factor runs on a one-rank dist world and charges every kernel (the
// RandQB_EI sweep, pivot selection, QRs, core solves, the exact
// residual) to its Comm.
package cur

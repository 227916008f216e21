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
//   - CUR: sketch-then-QRCP on both sides (columns from a row-space
//     sketch ΩᵀA, rows from a column-space sketch AΩ), core
//     U = C⁺AR⁺ solved through two blocked Householder QRs.
//   - ID2 (two-sided ID): the same sketched column selection, then row
//     selection from a second QRCP pass on the selected columns; core
//     U = A(I,J)⁻¹, the skeleton inverse.
//   - ACA: no sketching at all — partial-pivoted cross approximation
//     walks residual rows and columns of the CSR structure directly,
//     never materializing a dense residual.
//
// The package follows the repo's solver contracts: seeded determinism
// (identical Options produce bit-identical factors independent of
// GOMAXPROCS), fixed-precision stopping against τ·‖A‖_F verified by an
// exact streamed residual (sparse.CSR.ResidualFrobNorm — A is never
// densified), and a Result shape mirroring randqb/rsvd so core can
// expose it uniformly. Factor runs on a one-rank dist world and charges
// every kernel (sketch apply, pivot selection, QRs, core solves, the
// exact residual) to its Comm.
package cur

// Package randubv implements RandUBV (Hallman 2021), the block Lanczos
// bidiagonalization method for fixed-accuracy low-rank approximation the
// paper compares against in §VI-B: A ≈ U·B·Vᵀ with B block bidiagonal,
// built by a randomized block Golub–Kahan recurrence with one-sided
// reorthogonalization, using the same Frobenius error indicator family as
// RandQB_EI.
//
// The paper evaluates RandUBV sequentially and names a parallel version
// as future work. The recurrence is written once, as the SPMD body
// FactorDist; the sequential Factor runs that body on a one-rank world,
// where its collectives vanish. Its per-iteration work matches RandQB_EI
// with p = 0 (§IV).
package randubv

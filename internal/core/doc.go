// Package core is the public entry point of the library: a uniform
// fixed-precision low-rank approximation driver over all ten methods —
// the paper's RandQB_EI, RandUBV, LU_CRTP, ILUT_CRTP and TSVD baseline,
// the RSVD and ARRF baselines of its related work, and the skeleton
// methods CUR, ID2 and ACA — with the shared termination criterion
//
//	‖A − Â_K‖_F < τ·‖A‖_F
//
// evaluated through each method's native error indicator (§II), plus
// uniform telemetry (iterations, rank, factor nonzeros, error history,
// wall time, and the modeled parallel time with its per-kernel
// breakdown). Every method runs its body on a dist world of
// max(Procs, 1) virtual ranks through one dispatch, and charges each
// kernel to that world's virtual clock; only the loop solvers accept
// more than one rank.
//
// Approximation.Factors is the one table of a result's factors, and it
// is the whole product in order (P_rᵀ·L·U·P_cᵀ, Q·B, U·B·Vᵀ, U·S·Vᵀ,
// C·U·R). TrueError, Reconstruct, the cache cost and lowrankd's factor
// exports all read it; ARRF, whose product Q·Qᵀ·A needs A, is the one
// exception.
package core

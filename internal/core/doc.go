// Package core is the public entry point of the library: a uniform
// fixed-precision low-rank approximation driver over every method the
// paper studies — RandQB_EI, RandUBV, LU_CRTP, ILUT_CRTP and the TSVD
// baseline — with the shared termination criterion
//
//	‖A − Â_K‖_F < τ·‖A‖_F
//
// evaluated through each method's native error indicator (§II), plus
// uniform telemetry (iterations, rank, factor nonzeros, error history,
// wall time, and — for the loop solvers, at every rank count — modeled
// parallel time and per-kernel breakdowns).
//
// Approximation.Factors is the one table of a result's factors, and it
// is the whole product in order (P_rᵀ·L·U·P_cᵀ, Q·B, U·B·Vᵀ, U·S·Vᵀ,
// C·U·R). TrueError, Reconstruct, the cache cost and lowrankd's factor
// exports all read it; ARRF, whose product Q·Qᵀ·A needs A, is the one
// exception.
package core

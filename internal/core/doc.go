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
package core

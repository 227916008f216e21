// Package sketch provides the randomized sketching operators that drive
// the fixed-precision range finders: seeded, deterministic generators of
// n×k sketch blocks Ω with structure-aware apply kernels, so A·Ω can
// exploit both the sparsity of A and the structure of Ω.
//
// Three families are implemented:
//
//   - Gaussian: dense i.i.d. N(0,1) entries — the classical sketch every
//     solver used before this package existed. Its generator replays the
//     exact historical RNG stream (row-major NormFloat64 fill), so the
//     default path of every solver is bit-identical to prior releases.
//   - SparseSign: s nonzeros of value ±1/√s per row of Ω (Aizenbud,
//     Shabat & Averbuch style sparse projections). A·Ω costs
//     O(nnz(A)·s) instead of O(nnz(A)·k).
//   - SRTT: a subsampled randomized trigonometric transform in compressed
//     form — CountSketch to kp = nextPow2(k) buckets, a random sign
//     diagonal, an in-place fast Walsh–Hadamard transform and a random
//     column subsample, scaled by 1/√k. A·Ω costs
//     O(nnz(A) + m·kp·log kp).
//
// A Sketcher is a stateful stream: Next(k) draws the next block from the
// seeded RNG, Draws reports the canonical variates consumed (NormFloat64
// for Gaussian, Uint64 for the structured sketches), and FastForward
// replays that many variates so distributed checkpoint/restart can resume
// a sketch stream mid-run; SPMD ranks each construct their own stream
// from the shared seed.
package sketch

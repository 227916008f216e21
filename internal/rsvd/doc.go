// Package rsvd implements the restarted randomized SVD approach to the
// fixed-precision problem described in the paper's related work (§I-A,
// after Halko et al.): compute a randomized SVD at an initial estimated
// rank k; if the resulting error is above the tolerance, double k and
// recompute, until the error is small enough. Each attempt is one
// RandQB_EI block of width k + 8 (randqb.FactorDist) followed by the SVD
// of its small B, so RSVD shares RandQB_EI's kernels and charges.
//
// The method is included as a comparator: each restart redoes the full
// sketch, so its cost is a geometric series over the incremental methods'
// single pass — exactly why the paper's protagonists (RandQB_EI,
// LU_CRTP) build their factorizations incrementally.
package rsvd

// Package mat implements the dense linear-algebra substrate used by the
// low-rank approximation algorithms: a row-major dense matrix type with
// blocked matrix multiplication, Householder QR, column-pivoted QR (QRCP),
// LU with partial pivoting, triangular solves and a one-sided Jacobi SVD.
//
// The package replaces the roles of Intel MKL and the Elemental framework
// in the original paper: all dense kernels the fixed-precision drivers need
// are provided here using only the standard library.
package mat

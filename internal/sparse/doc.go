// Package sparse implements the sparse-matrix substrate for the low-rank
// approximation algorithms: CSR, CSC and COO storage, sparse×dense and
// sparse×sparse products and LU_CRTP's fused Schur update A₂₂ − X·A₁₂,
// row/column permutation, panel extraction,
// norms, thresholding with captured perturbation matrices (the T̃ factors
// of ILUT_CRTP), fill statistics and MatrixMarket I/O.
//
// It plays the role SuiteSparse and the sparse side of Elemental played in
// the original paper's C++ implementation.
package sparse

// Package qrtp implements QR factorization with tournament pivoting
// (QR_TP), the rank-revealing column-selection kernel at the heart of
// LU_CRTP: it finds the k "most linearly independent" columns of a sparse
// matrix using a reduction tree of small column-pivoted QR factorizations
// (Grigori, Cayrols, Demmel, SIAM J. Sci. Comput. 2018).
//
// Both a sequential driver (flat or binary tree) and a distributed driver
// over the dist runtime (communication-free local round followed by
// log₂(P) global reduction rounds) are provided. The distributed variant
// is the scaling bottleneck the paper analyzes in Fig 4: once log₂(P)
// approaches the tree height, the global rounds dominate.
//
// A Workspace carries the grow-only storage of the tournament games, so
// a solve that runs many tournaments (LU_CRTP runs two per iteration)
// allocates its panels once; the package-level functions run on a fresh
// one.
package qrtp

package core

import (
	"math"
	"testing"
)

// TestTrueErrorBitsPinned pins TrueError's bits for every method on one
// small matrix, recorded when each method still rebuilt its own product
// (randqb/randubv/rsvd/cur.TrueError, arrf.ResidualNorm, TSVD's U·diag(S)
// scaling in core, lucrtp.TrueError). The one product rule must perform
// the same operations in the same order. The CUR and ID2 rows were
// re-recorded when their skeletons came to be selected from RandQB_EI's
// basis, and the RSVD row when its attempts came to run as one-block
// RandQB_EI sweeps; both change the factors themselves.
func TestTrueErrorBitsPinned(t *testing.T) {
	a := testMatrix(3)
	for _, c := range []struct {
		method Method
		rank   int
		bits   uint64
	}{
		{RandQBEI, 16, 0x3fa78ca8152a8461},
		{RandUBV, 16, 0x3fa181e9a260d8d3},
		{LUCRTP, 16, 0x3f9ecc63f9b7a45c},
		{ILUTCRTP, 16, 0x3f9e92e6de678cee},
		{TSVD, 12, 0x3fac58e2ae7ab1a5},
		{RSVDRestart, 12, 0x3fac59e3a25fd7f1},
		{ARRF, 23, 0x3f6870382b81e09b},
		{CUR, 16, 0x3fa2a3a147ac4b4e},
		{TwoSidedID, 16, 0x3fa0dd4c4654f71a},
		{ACA, 18, 0x3fae5e49a6dbd384},
	} {
		ap, err := Approximate(a, Options{Method: c.method, BlockSize: 8, Tol: 1e-2, Seed: 4})
		if err != nil {
			t.Fatalf("%v: %v", c.method, err)
		}
		if te := ap.TrueError(a); ap.Rank != c.rank || math.Float64bits(te) != c.bits {
			t.Errorf("%v: rank %d TrueError %v (%#016x), want rank %d %v (%#016x)",
				c.method, ap.Rank, te, math.Float64bits(te), c.rank, math.Float64frombits(c.bits), c.bits)
		}
	}
}

package core_test

import (
	"fmt"

	"sparselr/internal/core"
	"sparselr/internal/gen"
)

// ExampleApproximate demonstrates the uniform fixed-precision driver:
// factor a sparse matrix to 1% relative Frobenius accuracy with the
// deterministic ILUT_CRTP method and inspect the result.
func ExampleApproximate() {
	// A 200×200 sparse matrix with geometric singular-value decay.
	a := gen.RandLowRank(200, 200, 40, 0.8, 5, 7)

	ap, err := core.Approximate(a, core.Options{
		Method:    core.ILUTCRTP,
		BlockSize: 8,
		Tol:       1e-2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("method:", ap.Method)
	fmt.Println("converged:", ap.Converged)
	fmt.Println("indicator below bound:", ap.ErrIndicator < 1e-2*ap.NormA)
	fmt.Println("true error below bound:", ap.TrueError(a) < 1.05e-2*ap.NormA)
	// Output:
	// method: ILUT_CRTP
	// converged: true
	// indicator below bound: true
	// true error below bound: true
}

// ExampleApproximate_fixedRank demonstrates the fixed-rank mode: prescribe
// the rank as MaxRank with Tol 0 and compare the randomized
// factorization's error with the optimum.
func ExampleApproximate_fixedRank() {
	a := gen.RandLowRank(150, 150, 30, 0.75, 5, 3)

	qb, err := core.Approximate(a, core.Options{Method: core.RandQBEI, MaxRank: 16, BlockSize: 8, Power: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	svd, err := core.Approximate(a, core.Options{Method: core.TSVD, MaxRank: 16})
	if err != nil {
		panic(err)
	}
	fmt.Println("ranks:", qb.Rank, svd.Rank)
	// Eckart–Young: the randomized error is within a small factor of the
	// optimal rank-16 error.
	fmt.Println("near-optimal:", qb.TrueError(a) < 2*svd.ErrIndicator)
	// Output:
	// ranks: 16 16
	// near-optimal: true
}

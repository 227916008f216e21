package randqb

import (
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// oneRank runs FactorDist on a one-rank world with the given hook.
func oneRank(t *testing.T, a *sparse.CSR, opts Options, accept func(q, b *mat.Dense) bool) *Result {
	t.Helper()
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (*Result, error) {
		return FactorDist(c, a, opts, accept)
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Each refusal grows the basis by one block from the same sketch stream,
// so two refusals end where a fixed-rank run at K₀ + 2k ends, bit for bit.
func TestAcceptRefusalsGrowByBlocks(t *testing.T) {
	a := decayMatrix(80, 70, 40, 0.7, 3)
	const k = 8
	for _, power := range []int{0, 1} {
		opts := Options{BlockSize: k, Tol: 1e-2, Power: power, Seed: 5}
		k0 := oneRank(t, a, opts, nil).Rank
		calls := 0
		got := oneRank(t, a, opts, func(q, b *mat.Dense) bool {
			if q.Cols != k0+calls*k || b.Rows != q.Cols {
				t.Errorf("power %d: call %d sees Q %d×%d and B %d×%d, want K = %d",
					power, calls, q.Rows, q.Cols, b.Rows, b.Cols, k0+calls*k)
			}
			calls++
			return calls > 2
		})
		if calls != 3 || got.Rank != k0+2*k {
			t.Fatalf("power %d: %d calls, rank %d; want 3 calls and rank %d", power, calls, got.Rank, k0+2*k)
		}
		fixed := oneRank(t, a, Options{BlockSize: k, Power: power, MaxRank: k0 + 2*k, Seed: 5}, nil)
		if !got.Q.Equal(fixed.Q, 0) || !got.B.Equal(fixed.B, 0) {
			t.Fatalf("power %d: grown Q/B differ from the fixed-rank run at K = %d", power, k0+2*k)
		}
	}
}

// A hook that never accepts still ends: on a matrix whose range the
// first block captures exactly, the next block adds no column.
func TestAcceptRefusingCapturedRangeTerminates(t *testing.T) {
	b := sparse.NewBuilder(20, 20)
	b.Add(0, 0, 1)
	calls := 0
	r := oneRank(t, b.ToCSR(), Options{BlockSize: 4, Tol: 1e-2, Seed: 1}, func(q, b *mat.Dense) bool {
		calls++
		return false
	})
	if r.Rank != 1 || calls != 1 {
		t.Fatalf("rank %d after %d calls, want rank 1 after 1", r.Rank, calls)
	}
}

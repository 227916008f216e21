package qrtp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// oneRank runs a tournament on a one-rank world, where rank 0 owns
// every candidate.
func oneRank(body func(*dist.Comm) Result) Result {
	r, _, _ := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (Result, error) {
		return body(c), nil
	})
	return r
}

func randCSR(r, c int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.ToCSR()
}

// lowRankPlusNoise builds a matrix whose first `strong` columns carry a
// large-magnitude rank-`strong` component: the tournament must find them.
func spikedMatrix(m, n, strong int, seed int64) (*sparse.CSR, map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	spikes := map[int]bool{}
	// Scatter the strong columns across the matrix.
	for s := 0; s < strong; s++ {
		j := (s*n)/strong + rng.Intn(n/strong)
		for spikes[j] {
			j = (j + 1) % n
		}
		spikes[j] = true
		// A heavy, nearly-orthogonal column: one dominant entry per spike.
		b.Add(s, j, 100+rng.Float64())
		b.Add((s+7)%m, j, 10)
	}
	for j := 0; j < n; j++ {
		if spikes[j] {
			continue
		}
		// Weak columns.
		for t := 0; t < 3; t++ {
			b.Add(rng.Intn(m), j, 0.01*rng.NormFloat64())
		}
	}
	return b.ToCSR(), spikes
}

func TestSelectColumnsFindsSpikes(t *testing.T) {
	for _, tree := range []Tree{Binary, Flat} {
		a, spikes := spikedMatrix(40, 32, 4, 90)
		res := SelectColumns(a.ToCSC(), 4, tree)
		if len(res.Winners) != 4 {
			t.Fatalf("got %d winners, want 4", len(res.Winners))
		}
		for _, w := range res.Winners {
			if !spikes[w] {
				t.Fatalf("tree %v: winner %d is not a spiked column (spikes %v)", tree, w, spikes)
			}
		}
	}
}

func TestSelectColumnsSmallMatrix(t *testing.T) {
	a := randCSR(5, 3, 0.8, 91)
	res := SelectColumns(a.ToCSC(), 8, Binary)
	if len(res.Winners) != 3 {
		t.Fatalf("all columns should win when n ≤ k, got %d", len(res.Winners))
	}
}

func TestSelectColumnsWinnersDistinct(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(20, 30, 0.2, seed)
		res := SelectColumns(a.ToCSC(), 6, Binary)
		seen := map[int]bool{}
		for _, w := range res.Winners {
			if w < 0 || w >= 30 || seen[w] {
				return false
			}
			seen[w] = true
		}
		return len(res.Winners) == 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestR11UpperTriangularAndBounded(t *testing.T) {
	a := randCSR(25, 20, 0.3, 92)
	res := SelectColumns(a.ToCSC(), 5, Binary)
	r := res.R11
	if r.Rows != 5 || r.Cols != 5 {
		t.Fatalf("R11 dims %d×%d", r.Rows, r.Cols)
	}
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatal("R11 not upper triangular")
			}
		}
	}
	// |R11(0,0)| ≤ ‖A‖₂ (eq 23): compare against the largest singular
	// value computed densely.
	sv := mat.SingularValues(a.ToDense())
	if math.Abs(r.At(0, 0)) > sv[0]*(1+1e-10) {
		t.Fatalf("|R11(0,0)| = %v exceeds ‖A‖₂ = %v", math.Abs(r.At(0, 0)), sv[0])
	}
	// It should also be a decent approximation of ‖A‖₂ — within the
	// sqrt(n·k)-ish RRQR factor; use a generous 10×.
	if math.Abs(r.At(0, 0)) < sv[0]/10 {
		t.Fatalf("|R11(0,0)| = %v far below ‖A‖₂ = %v", math.Abs(r.At(0, 0)), sv[0])
	}
}

func TestTournamentQualityVsSVD(t *testing.T) {
	// The winners' panel should capture a large share of the spectral
	// mass compared with the best rank-k subspace.
	a := randCSR(30, 40, 0.25, 93)
	k := 5
	res := SelectColumns(a.ToCSC(), k, Binary)
	panel := a.ToCSC().ExtractColsDense(res.Winners)
	q := mat.Orth(panel)
	// Residual after projecting A onto the winner span.
	ad := a.ToDense()
	proj := mat.Mul(q, mat.MulT(q, ad))
	resid := ad.Clone()
	resid.Sub(proj)
	sv := mat.SingularValues(ad)
	var optimal float64
	for i := k; i < len(sv); i++ {
		optimal += sv[i] * sv[i]
	}
	// RRQR guarantee is a polynomial factor; in practice small. Allow 4×
	// the optimal residual (Frobenius).
	if resid.FrobNorm() > 4*math.Sqrt(optimal)+1e-12 {
		t.Fatalf("tournament residual %v too far above optimal %v", resid.FrobNorm(), math.Sqrt(optimal))
	}
}

func TestPermutation(t *testing.T) {
	perm := Permutation([]int{3, 1}, 5)
	want := []int{3, 1, 0, 2, 4}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestPermutationInvalidWinner(t *testing.T) {
	for _, winners := range [][]int{{5}, {-1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for winners %v", winners)
				}
			}()
			Permutation(winners, 5)
		}()
	}
}

func TestSelectRowsDense(t *testing.T) {
	// Matrix with 3 strong rows.
	d := mat.NewDense(10, 4)
	rng := rand.New(rand.NewSource(94))
	strong := map[int]bool{1: true, 5: true, 8: true}
	for i := 0; i < 10; i++ {
		for j := 0; j < 4; j++ {
			v := 0.01 * rng.NormFloat64()
			if strong[i] {
				v = 10 * (1 + rng.Float64())
				if (i+j)%2 == 0 {
					v = -v
				}
			}
			d.Set(i, j, v)
		}
	}
	rows := oneRank(func(c *dist.Comm) Result {
		return new(Workspace).SelectRowsDist(c, d, BlockCyclicColumns(d.Rows, 1, 0, 3), 3)
	}).Winners
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !strong[r] {
			t.Fatalf("selected weak row %d", r)
		}
	}
}

func TestFlatAndBinaryAgreeOnClearSpikes(t *testing.T) {
	a, _ := spikedMatrix(50, 48, 6, 95)
	rb := SelectColumns(a.ToCSC(), 6, Binary)
	rf := SelectColumns(a.ToCSC(), 6, Flat)
	sb := append([]int(nil), rb.Winners...)
	sf := append([]int(nil), rf.Winners...)
	sort.Ints(sb)
	sort.Ints(sf)
	for i := range sb {
		if sb[i] != sf[i] {
			t.Fatalf("binary %v and flat %v disagree", sb, sf)
		}
	}
}

func TestBlockCyclicColumnsPartition(t *testing.T) {
	n, p, block := 23, 4, 3
	seen := make([]int, n)
	for r := 0; r < p; r++ {
		for _, j := range BlockCyclicColumns(n, p, r, block) {
			seen[j]++
		}
	}
	for j, c := range seen {
		if c != 1 {
			t.Fatalf("column %d owned %d times", j, c)
		}
	}
}

func TestSelectColumnsDistMatchesSequentialWinners(t *testing.T) {
	a, spikes := spikedMatrix(60, 64, 8, 96)
	csc := a.ToCSC()
	k := 8
	for _, p := range []int{1, 2, 4, 8} {
		res := dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
			myCols := BlockCyclicColumns(64, p, c.Rank(), 2*k)
			r := SelectColumnsDist(c, csc, myCols, k)
			if len(r.Winners) != k {
				t.Errorf("p=%d rank=%d: %d winners", p, c.Rank(), len(r.Winners))
				return
			}
			for _, w := range r.Winners {
				if !spikes[w] {
					t.Errorf("p=%d: winner %d not a spike", p, w)
				}
			}
		})
		if res.MaxTime() <= 0 {
			t.Fatal("virtual time should be positive")
		}
	}
}

func TestSelectColumnsDistAllRanksAgree(t *testing.T) {
	a := randCSR(40, 32, 0.3, 97)
	csc := a.ToCSC()
	k := 4
	p := 4
	winners := make([][]int, p)
	dist.Run(p, dist.DefaultConfig(), func(c *dist.Comm) {
		myCols := BlockCyclicColumns(32, p, c.Rank(), 2*k)
		r := SelectColumnsDist(c, csc, myCols, k)
		winners[c.Rank()] = r.Winners
	})
	for r := 1; r < p; r++ {
		for i := range winners[0] {
			if winners[r][i] != winners[0][i] {
				t.Fatalf("rank %d winners %v != rank 0 %v", r, winners[r], winners[0])
			}
		}
	}
}

func TestSelectColumnsDistKernelAttribution(t *testing.T) {
	a := randCSR(50, 64, 0.2, 98)
	csc := a.ToCSC()
	res := dist.Run(4, dist.DefaultConfig(), func(c *dist.Comm) {
		myCols := BlockCyclicColumns(64, 4, c.Rank(), 8)
		SelectColumnsDist(c, csc, myCols, 4)
	})
	if res.MaxKernel("colQR_TP/local") <= 0 {
		t.Fatal("local tournament kernel time missing")
	}
	if res.MaxKernel("colQR_TP/global") <= 0 {
		t.Fatal("global tournament kernel time missing")
	}
}

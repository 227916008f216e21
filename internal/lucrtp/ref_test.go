package lucrtp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/sparse"
)

// assembleFactors is the factor assembly FactorDist used before its
// factorStore, kept as the reference for it: L and U buffered as
// (row, column, value) triples in original ids, then mapped to the final
// positions (rowPos/colPos, the inverses of the row and column orders)
// and sorted by sparse.Builder.
func assembleFactors(lEnt, uEnt []entry, rowPos, colPos []int, rank int) (l, u *sparse.CSR) {
	lb := sparse.NewBuilder(len(rowPos), rank)
	for _, e := range lEnt {
		lb.Add(rowPos[e.i], e.j, e.v)
	}
	ub := sparse.NewBuilder(rank, len(colPos))
	for _, e := range uEnt {
		ub.Add(e.i, colPos[e.j], e.v)
	}
	return lb.ToCSR(), ub.ToCSR()
}

// appendEntries is the per-iteration append of L_k = [I; X] and
// U_k = [Ā₁₁ Ā₁₂] as triples that fed assembleFactors.
func appendEntries(lEnt, uEnt []entry, z, keff int, rowOrder, colOrder []int, abar, x *sparse.CSR) ([]entry, []entry) {
	a11 := abar.ExtractBlock(0, keff, 0, keff).ToDense()
	a12 := abar.ExtractBlock(0, keff, keff, abar.Cols)
	for t := 0; t < keff; t++ {
		lEnt = append(lEnt, entry{rowOrder[z+t], z + t, 1})
		for cc := 0; cc < keff; cc++ {
			if v := a11.At(t, cc); v != 0 {
				uEnt = append(uEnt, entry{z + t, colOrder[z+cc], v})
			}
		}
		cols, vals := a12.RowView(t)
		for kk, cc := range cols {
			uEnt = append(uEnt, entry{z + t, colOrder[z+keff+cc], vals[kk]})
		}
	}
	for r := 0; r < x.Rows; r++ {
		cols, vals := x.RowView(r)
		for kk, cc := range cols {
			lEnt = append(lEnt, entry{rowOrder[z+keff+r], z + cc, vals[kk]})
		}
	}
	return lEnt, uEnt
}

// withStoredZeros returns an m×n CSR of the given density whose stored
// entries are one in three an explicit +0 or −0.
func withStoredZeros(m, n int, density float64, rng *rand.Rand) *sparse.CSR {
	a := sparse.NewCSR(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := rng.NormFloat64()
			switch rng.Intn(6) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			a.ColIdx = append(a.ColIdx, j)
			a.Val = append(a.Val, v)
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// TestFactorStoreMatchesEntryAssembly drives the factorStore and the
// reference triples through the same iterations: panels whose Ā stores
// explicit ±0, tail permutations of both orders between iterations, and
// a checkpoint clone of the store halfway. The factors must be bitwise
// the reference's, with no stored zero in U, in storage of exactly their
// size.
func TestFactorStoreMatchesEntryAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const m, n, k = 70, 55, 6
	rowOrder, colOrder := identity(m), identity(n)
	f := newFactorStore(m, n)
	var lEnt, uEnt []entry
	var ws workspace
	z := 0
	for iter := 0; z+k <= min(m, n)-10; iter++ {
		mcur, ncur := m-z, n-z
		ws.applyTail(rowOrder, z, rng.Perm(mcur))
		ws.applyTail(colOrder, z, rng.Perm(ncur))
		abar := withStoredZeros(mcur, ncur, 0.3, rng)
		x := randSparse(mcur-k, k, 0.4, rng.Int63())
		lEnt, uEnt = appendEntries(lEnt, uEnt, z, k, rowOrder, colOrder, abar, x)
		f.appendPanel(z, k, rowOrder, colOrder, abar, x)
		z += k
		if iter == 2 {
			// A resumed run continues from the snapshot's clones.
			f = factorStore{lt: *f.lt.Clone(), u: *f.u.Clone()}
		}
	}
	rowPos, colPos := inverse(rowOrder), inverse(colOrder)
	wantL, wantU := assembleFactors(lEnt, uEnt, rowPos, colPos, z)
	gotL, gotU := f.finish(rowPos, colOrder)
	for _, c := range []struct {
		name      string
		got, want *sparse.CSR
	}{{"L", gotL, wantL}, {"U", gotU, wantU}} {
		if !bitwiseCSR(c.got, c.want) {
			t.Fatalf("%s differs from the entry-triple assembly", c.name)
		}
		if !ownsStorage(c.got) {
			t.Fatalf("%s does not own exact-size storage", c.name)
		}
	}
	for _, v := range gotU.Val {
		if v == 0 {
			t.Fatal("a stored zero of Ā reached U")
		}
	}
}

// TestFactorStoredZerosDoNotReachU factors a matrix that stores explicit
// ±0 entries, without reordering (COLAMD reads the stored pattern), and
// requires the factors of the same matrix with its zeros removed.
func TestFactorStoredZerosDoNotReachU(t *testing.T) {
	a := withStoredZeros(80, 60, 0.2, rand.New(rand.NewSource(43)))
	clean := sparse.Add(1, a, 0, a)
	if clean.NNZ() == a.NNZ() {
		t.Fatal("fixture stores no zeros")
	}
	opts := Options{BlockSize: 6, Tol: 1e-3, Reorder: ReorderOff}
	got, err := Factor(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Factor(clean, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters < 2 {
		t.Fatalf("test needs a multi-iteration run, got %d iterations", got.Iters)
	}
	if !bitwiseCSR(got.L, want.L) || !bitwiseCSR(got.U, want.U) {
		t.Fatal("stored zeros changed the factors")
	}
}

// TestFactorsOwnTheirStorage requires L and U of LU_CRTP and ILUT_CRTP,
// sequential and at p = 2, to hold arrays of exactly their length, so a
// cached result pins no workspace or store slack.
func TestFactorsOwnTheirStorage(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	for _, opts := range []Options{
		{BlockSize: 4, Tol: 1e-2},
		{BlockSize: 4, Tol: 1e-2, Threshold: AutoThreshold, EstIters: 6},
	} {
		res, err := Factor(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		results := []*Result{res, nil}
		mustRun(t, 2, distCfg(), func(c *dist.Comm) {
			r, err := FactorDist(c, a, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Rank() == 1 {
				results[1] = r
			}
		})
		for _, r := range results {
			if r == nil || !ownsStorage(r.L) || !ownsStorage(r.U) {
				t.Fatalf("threshold mode %d: L or U does not own exact-size storage", opts.Threshold)
			}
		}
	}
}

// ownsStorage reports whether every array of a has cap == len.
func ownsStorage(a *sparse.CSR) bool {
	return cap(a.RowPtr) == len(a.RowPtr) && cap(a.ColIdx) == len(a.ColIdx) && cap(a.Val) == len(a.Val)
}

// bitwiseCSR reports whether a and b store the same structure and
// bitwise the same values.
func bitwiseCSR(a, b *sparse.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

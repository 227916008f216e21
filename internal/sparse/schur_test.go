package sparse

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/dist"
)

// schurCase builds A (m×n), X ((m−r0)×k) and B (k×(n−c0)) for
// SchurWorkspace.Schur(A, r0, c0, X, B, ·, ·). Rows listed in empty have no X
// entries and no trailing A entries; rows listed in cancel carry the
// product row X·B in A's trailing block, so A − X·B cancels to exactly
// zero there.
func schurCase(m, n, r0, c0, k int, dx, db, da float64, empty, cancel []int, seed int64) (a, x, b *CSR) {
	rng := rand.New(rand.NewSource(seed))
	isEmpty := make(map[int]bool)
	for _, i := range empty {
		isEmpty[i] = true
	}
	xb := NewBuilder(m-r0, k)
	for i := 0; i < m-r0; i++ {
		for j := 0; j < k && !isEmpty[i]; j++ {
			if rng.Float64() < dx {
				xb.Add(i, j, rng.NormFloat64())
			}
		}
	}
	x = xb.ToCSR()
	b = randCSR(k, n-c0, db, seed+1)
	p := SpGEMM(x, b)
	isCancel := make(map[int]bool)
	for _, i := range cancel {
		isCancel[i] = true
	}
	ab := NewBuilder(m, n)
	for i := 0; i < m; i++ {
		t := i - r0 // row of the trailing block, when ≥ 0
		for j := 0; j < n; j++ {
			trailing := t >= 0 && j >= c0
			if trailing && (isEmpty[t] || isCancel[t]) {
				continue
			}
			if rng.Float64() < da {
				ab.Add(i, j, rng.NormFloat64())
			}
		}
		if t >= 0 && isCancel[t] {
			cols, vals := p.RowView(t)
			for kk, j := range cols {
				ab.Add(i, c0+j, vals[kk])
			}
		}
	}
	return ab.ToCSR(), x, b
}

// TestSchurComplementMatchesAddSpGEMM pins the fused kernel bitwise to the
// two-pass form it replaces, Add(1, A22, −1, SpGEMM(X, A12)), on every row
// share dist.RowShare hands out at p ∈ {1, 2, 4}, on the serial path and
// (for the large case, whose shares clear the flop threshold) the
// weight-balanced parallel one.
func TestSchurComplementMatchesAddSpGEMM(t *testing.T) {
	type tc struct {
		name                string
		m, n, r0, c0, k     int
		dx, db, da          float64
		empty, cancel       []int
		parallelAtEveryRank bool
	}
	cases := []tc{
		{name: "small", m: 60, n: 50, r0: 6, c0: 6, k: 6, dx: 0.6, db: 0.2, da: 0.15,
			empty: []int{0, 17, 53}, cancel: []int{3, 4, 30, 52}},
		{name: "keff0", m: 40, n: 30, r0: 0, c0: 0, k: 0, da: 0.2, empty: []int{5}},
		{name: "offset", m: 50, n: 70, r0: 10, c0: 25, k: 4, dx: 0.7, db: 0.3, da: 0.1,
			cancel: []int{0, 39}},
		{name: "large", m: 840, n: 400, r0: 16, c0: 16, k: 16, dx: 0.5, db: 0.1, da: 0.02,
			empty: []int{1, 2, 400, 823}, cancel: []int{0, 100, 205, 206, 600, 822},
			parallelAtEveryRank: true},
	}
	for _, c := range cases {
		a, x, b := schurCase(c.m, c.n, c.r0, c.c0, c.k, c.dx, c.db, c.da, c.empty, c.cancel, int64(c.m+c.n))
		rows := c.m - c.r0
		for _, p := range []int{1, 2, 4} {
			for rank := 0; rank < p; rank++ {
				lo, hi := dist.RowShare(rows, p, rank)
				xblk := x.ExtractBlock(lo, hi, 0, x.Cols)
				ablk := a.ExtractBlock(c.r0+lo, c.r0+hi, c.c0, a.Cols)
				var want *CSR
				withMaxProcs(1, func() { want = Add(1, ablk, -1, SpGEMM(xblk, b)) })
				var w SchurWorkspace
				w.weigh(gustavson{x: x, b: b, a: a, r0: c.r0, c0: c.c0}, lo, hi)
				if pw := w.pw; c.parallelAtEveryRank && 2*float64(pw[hi-lo]) < spgemmParallelThreshold {
					t.Fatalf("%s p=%d rank %d: share below the parallel threshold", c.name, p, rank)
				}
				wantFlops := SpGEMMFlops(xblk, b) + 2*float64(ablk.NNZ())
				for _, procs := range []int{1, 2, 4} {
					var got *CSR
					var flops float64
					withMaxProcs(procs, func() { got, flops = new(SchurWorkspace).Schur(a, c.r0, c.c0, x, b, lo, hi) })
					if !csrBitwiseEqual(got, want) {
						t.Fatalf("%s p=%d rank %d [%d,%d) GOMAXPROCS=%d: fused Schur differs from Add(A22, −X·A12)",
							c.name, p, rank, lo, hi, procs)
					}
					if flops != wantFlops {
						t.Fatalf("%s p=%d rank %d: Schur charges %v flops, want %v", c.name, p, rank, flops, wantFlops)
					}
				}
			}
		}
		// The cancelling rows must come out empty, or the case does not
		// exercise the exact-zero drop.
		s, _ := new(SchurWorkspace).Schur(a, c.r0, c.c0, x, b, 0, rows)
		for _, i := range c.cancel {
			if s.RowPtr[i+1] != s.RowPtr[i] {
				t.Fatalf("%s: cancelling row %d kept %d entries", c.name, i, s.RowPtr[i+1]-s.RowPtr[i])
			}
		}
	}
}

// TestSchurWorkspaceReuse runs one workspace over a sequence of shapes
// that grow and then shrink, on the serial path (GOMAXPROCS 1) and the
// chunked one (GOMAXPROCS 2): every call must equal the two-pass
// reference bit for bit, so rows, entries, accumulator marks or chunk
// buffers left over from a larger call show up. One shape has a last
// row heavier than all the others together, which leaves the chunked
// path's last chunk empty right after a call that filled it.
func TestSchurWorkspaceReuse(t *testing.T) {
	type shape struct {
		m, n, r0, c0, k int
		dx, db, da      float64
		heavy           bool
	}
	shapes := []shape{
		{60, 50, 6, 6, 6, 0.5, 0.1, 0.03, false},
		{300, 200, 8, 8, 8, 0.5, 0.1, 0.03, false},
		{840, 400, 16, 16, 16, 0.5, 0.1, 0.03, false},
		{300, 2000, 24, 24, 24, 0, 1, 0.001, true},
		{500, 300, 12, 12, 12, 0.5, 0.1, 0.03, false},
		{120, 90, 4, 4, 4, 0.5, 0.1, 0.03, false},
		{40, 30, 0, 0, 0, 0.5, 0.1, 0.03, false},
	}
	for _, procs := range []int{1, 2} {
		var w SchurWorkspace
		emptyChunk := false
		for i, sh := range shapes {
			rows := sh.m - sh.r0
			seed := int64(200 + i)
			a, x, b := schurCase(sh.m, sh.n, sh.r0, sh.c0, sh.k, sh.dx, sh.db, sh.da,
				[]int{0, rows / 2, rows/2 + 1}, []int{1, rows - 2}, seed)
			if sh.heavy {
				a, x = withHeavyLastRow(a, x, sh.c0, seed)
			}
			for _, p := range []int{1, 2} {
				for rank := 0; rank < p; rank++ {
					lo, hi := dist.RowShare(rows, p, rank)
					var want, got *CSR
					withMaxProcs(1, func() {
						want = Add(1, a.ExtractBlock(sh.r0+lo, sh.r0+hi, sh.c0, a.Cols), -1, SpGEMM(x.ExtractBlock(lo, hi, 0, x.Cols), b))
					})
					withMaxProcs(procs, func() { got, _ = w.Schur(a, sh.r0, sh.c0, x, b, lo, hi) })
					if !csrBitwiseEqual(got, want) || len(got.RowPtr) != got.Rows+1 {
						t.Fatalf("GOMAXPROCS=%d shape %d (%d×%d) p=%d rank %d: reused workspace differs from the reference",
							procs, i, sh.m, sh.n, p, rank)
					}
					if procs == 2 && sh.heavy && 2*float64(w.pw[hi-lo]) >= spgemmParallelThreshold && w.bounds[len(w.bounds)-2] == hi-lo {
						emptyChunk = true
					}
				}
			}
		}
		if procs == 2 && !emptyChunk {
			t.Fatal("no chunked call left its last chunk empty")
		}
	}
}

// withHeavyLastRow returns a and x with their last rows filled in (a's
// trailing block from column c0, all of x's row).
func withHeavyLastRow(a, x *CSR, c0 int, seed int64) (*CSR, *CSR) {
	rng := rand.New(rand.NewSource(seed))
	fill := func(m *CSR, from int) *CSR {
		b := NewBuilder(m.Rows, m.Cols)
		for i := 0; i < m.Rows-1; i++ {
			cols, vals := m.RowView(i)
			for k, j := range cols {
				b.Add(i, j, vals[k])
			}
		}
		for j := from; j < m.Cols; j++ {
			b.Add(m.Rows-1, j, rng.NormFloat64())
		}
		return b.ToCSR()
	}
	return fill(a, c0), fill(x, 0)
}

// TestSchurWorkspaceWarmAllocs pins a warm call of an unchanged shape to
// zero allocations on the serial and the chunked path.
func TestSchurWorkspaceWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a, x, b := schurCase(840, 400, 16, 16, 16, 0.5, 0.1, 0.02, nil, nil, 7)
	for _, procs := range []int{1, 2} {
		var w SchurWorkspace
		withMaxProcs(procs, func() {
			w.Schur(a, 16, 16, x, b, 0, 824)
			if got := testing.AllocsPerRun(10, func() { w.Schur(a, 16, 16, x, b, 0, 824) }); got != 0 {
				t.Fatalf("GOMAXPROCS=%d: warm Schur %v allocs/op, want 0", procs, got)
			}
		})
	}
}

func TestSchurComplementDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a mismatched B")
		}
	}()
	new(SchurWorkspace).Schur(NewCSR(5, 5), 1, 1, NewCSR(4, 2), NewCSR(2, 3), 0, 4)
}

// TestPermuteColsAllocs bounds PermuteCols to the result's four
// allocations: rows are re-sorted on pooled scratch.
func TestPermuteColsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := randCSR(300, 200, 0.05, 91)
	perm := rand.New(rand.NewSource(92)).Perm(200)
	if got := testing.AllocsPerRun(10, func() { a.PermuteCols(perm) }); got > 4 {
		t.Fatalf("PermuteCols: %v allocs/op, want ≤ 4", got)
	}
}

// sameCSR reports whether a and b store the same structure and bitwise
// the same values.
func sameCSR(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestPermuteIntoMatchesTwoPasses reuses one destination over matrices
// that grow and shrink: the fused P_r·A·P_c must equal PermuteCols then
// PermuteRows bit for bit, and a warm call allocates nothing.
func TestPermuteIntoMatchesTwoPasses(t *testing.T) {
	var dst CSR
	var csc CSC
	for i, s := range [][2]int{{40, 30}, {200, 150}, {10, 60}, {120, 90}} {
		a := randCSR(s[0], s[1], 0.08, int64(70+i))
		rng := rand.New(rand.NewSource(int64(80 + i)))
		rp, cp := rng.Perm(s[0]), rng.Perm(s[1])
		a.PermuteInto(&dst, rp, cp)
		if !sameCSR(&dst, a.PermuteCols(cp).PermuteRows(rp)) {
			t.Fatalf("%d×%d: PermuteInto differs from PermuteCols·PermuteRows", s[0], s[1])
		}
		a.ToCSCInto(&csc)
		fresh := a.ToCSC()
		if !sameCSR(&CSR{Rows: csc.Cols, Cols: csc.Rows, RowPtr: csc.ColPtr, ColIdx: csc.RowIdx, Val: csc.Val},
			&CSR{Rows: fresh.Cols, Cols: fresh.Rows, RowPtr: fresh.ColPtr, ColIdx: fresh.RowIdx, Val: fresh.Val}) {
			t.Fatalf("%d×%d: reused ToCSCInto differs from ToCSC", s[0], s[1])
		}
		if !csc.ToCSR().Equal(a, 0) {
			t.Fatalf("%d×%d: ToCSCInto does not round-trip", s[0], s[1])
		}
	}
	if raceEnabled {
		return
	}
	a := randCSR(200, 150, 0.08, 71)
	rp, cp := rand.New(rand.NewSource(81)).Perm(200), rand.New(rand.NewSource(82)).Perm(150)
	if got := testing.AllocsPerRun(10, func() { a.PermuteInto(&dst, rp, cp); a.ToCSCInto(&csc) }); got != 0 {
		t.Fatalf("warm PermuteInto + ToCSCInto: %v allocs/op, want 0", got)
	}
}

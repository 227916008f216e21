package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparselr/internal/mat"
)

// randCSR builds a deterministic random sparse matrix with roughly the
// given density.
func randCSR(r, c int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.ToCSR()
}

func randDense(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func TestBuilderToCSRSortsAndSums(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(2, 1, 5)
	b.Add(0, 0, 1)
	b.Add(2, 1, -2) // duplicate, summed to 3
	b.Add(1, 2, 4)
	a := b.ToCSR()
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", a.NNZ())
	}
	if a.At(0, 0) != 1 || a.At(1, 2) != 4 || a.At(2, 1) != 3 {
		t.Fatalf("wrong entries: %v", a.ToDense())
	}
}

func TestBuilderCancellationDropsEntry(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 2)
	b.Add(0, 1, -2)
	b.Add(1, 1, 7)
	a := b.ToCSR()
	if a.NNZ() != 1 || a.At(1, 1) != 7 {
		t.Fatalf("cancelled duplicate should be dropped, got nnz=%d", a.NNZ())
	}
}

func TestBuilderEmptyRows(t *testing.T) {
	b := NewBuilder(5, 4)
	b.Add(0, 0, 1)
	b.Add(4, 3, 2)
	a := b.ToCSR()
	if a.NNZ() != 2 || a.At(0, 0) != 1 || a.At(4, 3) != 2 {
		t.Fatal("empty middle rows handled incorrectly")
	}
	for i := 1; i < 4; i++ {
		cols, _ := a.RowView(i)
		if len(cols) != 0 {
			t.Fatalf("row %d should be empty", i)
		}
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestFromDenseToDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := randDense(6, 8, seed)
		// Sparsify about half the entries.
		rng := rand.New(rand.NewSource(seed + 1))
		for i := range d.Data {
			if rng.Float64() < 0.5 {
				d.Data[i] = 0
			}
		}
		var a CSR
		FromDenseInto(&a, d, 0)
		return a.ToDense().Equal(d, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromDenseTolerance(t *testing.T) {
	d := mat.NewDense(1, 3)
	copy(d.Data, []float64{1e-8, 0.5, -1e-9})
	a := new(CSR)
	FromDenseInto(a, d, 1e-6)
	if a.NNZ() != 1 || a.At(0, 1) != 0.5 {
		t.Fatal("tolerance-based sparsification wrong")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(7, 5, 0.3, seed)
		return a.Transpose().Transpose().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	a := randCSR(6, 9, 0.25, 11)
	if !a.Transpose().ToDense().Equal(a.ToDense().T(), 0) {
		t.Fatal("sparse transpose disagrees with dense transpose")
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(6, 5, 0.4, seed)
		b := randDense(5, 4, seed+1)
		return a.MulDense(b).Equal(mat.Mul(a.ToDense(), b), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulTDenseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(6, 5, 0.4, seed)
		b := randDense(6, 3, seed+1)
		return a.MulTDense(b).Equal(mat.Mul(a.ToDense().T(), b), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	a := randCSR(5, 4, 0.5, 13)
	x := []float64{1, -1, 2, 0.5}
	got := a.MulVec(x)
	want := mat.Mul(a.ToDense(), &mat.Dense{Rows: len(x), Cols: 1, Stride: 1, Data: x})
	for i := range got {
		if math.Abs(got[i]-want.Data[i]) > 1e-13 {
			t.Fatal("MulVec wrong")
		}
	}
}

func TestSpGEMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(6, 5, 0.35, seed)
		b := randCSR(5, 7, 0.35, seed+1)
		got := SpGEMM(a, b).ToDense()
		want := mat.Mul(a.ToDense(), b.ToDense())
		return got.Equal(want, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMSortedIndices(t *testing.T) {
	a := randCSR(8, 8, 0.4, 14)
	c := SpGEMM(a, a)
	for i := 0; i < c.Rows; i++ {
		cols, _ := c.RowView(i)
		for k := 1; k < len(cols); k++ {
			if cols[k] <= cols[k-1] {
				t.Fatal("SpGEMM output indices not strictly increasing")
			}
		}
	}
}

func TestAddMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(6, 6, 0.3, seed)
		b := randCSR(6, 6, 0.3, seed+1)
		got := Add(2, a, -3, b).ToDense()
		want, ad, bd := mat.NewDense(6, 6), a.ToDense(), b.ToDense()
		for i := range want.Data {
			want.Data[i] = 2*ad.Data[i] - 3*bd.Data[i]
		}
		return got.Equal(want, 1e-13)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddExactCancellation(t *testing.T) {
	a := randCSR(5, 5, 0.4, 15)
	diff := Add(1, a, -1, a)
	if diff.NNZ() != 0 {
		t.Fatalf("A - A should have no stored entries, got %d", diff.NNZ())
	}
}

func TestPermuteRowsMatchesDense(t *testing.T) {
	a := randCSR(6, 4, 0.4, 16)
	perm := rand.New(rand.NewSource(17)).Perm(6)
	want := mat.NewDense(6, 4)
	a.ToDense().PermuteRowsInto(want, perm)
	if !a.PermuteRows(perm).ToDense().Equal(want, 0) {
		t.Fatal("sparse PermuteRows disagrees with dense")
	}
}

func TestPermuteColsMatchesDense(t *testing.T) {
	a := randCSR(6, 5, 0.4, 18)
	perm := rand.New(rand.NewSource(19)).Perm(5)
	d, want := a.ToDense(), mat.NewDense(6, 5)
	for i := 0; i < 6; i++ {
		for j, p := range perm {
			want.Set(i, j, d.At(i, p))
		}
	}
	if !a.PermuteCols(perm).ToDense().Equal(want, 0) {
		t.Fatal("sparse PermuteCols disagrees with dense")
	}
}

func TestPermuteRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(6, 6, 0.3, seed)
		rng := rand.New(rand.NewSource(seed + 7))
		perm := rng.Perm(6)
		inv := make([]int, 6)
		for i, p := range perm {
			inv[p] = i
		}
		return a.PermuteRows(perm).PermuteRows(inv).Equal(a, 0) &&
			a.PermuteCols(perm).PermuteCols(inv).Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtractBlock(t *testing.T) {
	a := randCSR(8, 8, 0.4, 20)
	blk := a.ExtractBlock(2, 6, 3, 8)
	want := a.ToDense().View(2, 3, 4, 5)
	if !blk.ToDense().Equal(want.Clone(), 0) {
		t.Fatal("ExtractBlock wrong")
	}
}

func TestExtractBlockEmpty(t *testing.T) {
	a := randCSR(4, 4, 0.5, 21)
	blk := a.ExtractBlock(2, 2, 0, 4)
	if blk.Rows != 0 || blk.Cols != 4 || blk.NNZ() != 0 {
		t.Fatal("empty row range should give an empty block")
	}
}

func TestExtractColsDense(t *testing.T) {
	a := randCSR(7, 6, 0.4, 22)
	cols := []int{4, 0, 2}
	panel := a.ExtractColsDense(cols)
	d := a.ToDense()
	for p, j := range cols {
		for i := 0; i < 7; i++ {
			if panel.At(i, p) != d.At(i, j) {
				t.Fatal("ExtractColsDense wrong")
			}
		}
	}
}

func TestNormsMatchDense(t *testing.T) {
	a := randCSR(6, 6, 0.4, 23)
	d := a.ToDense()
	if math.Abs(a.FrobNorm()-d.FrobNorm()) > 1e-13*d.FrobNorm() {
		t.Fatal("FrobNorm mismatch")
	}
	if math.Abs(a.FrobNorm2()-d.FrobNorm2()) > 1e-13*d.FrobNorm2() {
		t.Fatal("FrobNorm2 mismatch")
	}
}

func TestColNorms2(t *testing.T) {
	a := randCSR(6, 5, 0.5, 24)
	d := a.ToDense()
	got := a.ColNorms2(nil)
	for j := 0; j < 5; j++ {
		var want float64
		for i := 0; i < 6; i++ {
			want += d.At(i, j) * d.At(i, j)
		}
		if math.Abs(got[j]-want) > 1e-13 {
			t.Fatal("ColNorms2 wrong")
		}
	}
}

// threshold splits a into the entries DropBelow(mu) keeps and the ones
// it removes.
func threshold(a *CSR, mu float64) (kept, dropped *CSR) {
	kept = a.Clone()
	b := NewBuilder(a.Rows, a.Cols)
	kept.DropBelow(mu, func(i, j int, v float64) { b.Add(i, j, v) })
	return kept, b.ToCSR()
}

func TestThresholdSplitsExactly(t *testing.T) {
	a := randCSR(8, 8, 0.5, 25)
	mu := 0.7
	kept, dropped := threshold(a, mu)
	// kept + dropped == a exactly.
	if !Add(1, kept, 1, dropped).Equal(a, 0) {
		t.Fatal("kept + dropped must reconstruct the original")
	}
	for _, v := range kept.Val {
		if math.Abs(v) < mu {
			t.Fatal("kept contains an entry below the threshold")
		}
	}
	for _, v := range dropped.Val {
		if math.Abs(v) >= mu {
			t.Fatal("dropped contains an entry above the threshold")
		}
	}
}

func TestThresholdZeroMuKeepsAll(t *testing.T) {
	a := randCSR(5, 5, 0.5, 26)
	kept, dropped := threshold(a, 0)
	if dropped.NNZ() != 0 || !kept.Equal(a, 0) {
		t.Fatal("mu = 0 must keep everything")
	}
}

// DroppedBelow's read-only pass must report bitwise the squared norm and
// exactly the count of what DropBelow removes, and DropBelow's in-place
// compaction must leave a valid CSR equal to the kept entries.
func TestDroppedBelowMatchesDropBelow(t *testing.T) {
	for i, mu := range []float64{0, 0.3, 0.7, 5} {
		a := randCSR(30, 20, 0.4, int64(60+i))
		n2, nnz := a.DroppedBelow(mu)
		kept, dropped := threshold(a, mu)
		if math.Float64bits(n2) != math.Float64bits(dropped.FrobNorm2()) || nnz != dropped.NNZ() {
			t.Fatalf("mu=%v: DroppedBelow = (%v, %d), removed entries give (%v, %d)", mu, n2, nnz, dropped.FrobNorm2(), dropped.NNZ())
		}
		if kept.RowPtr[kept.Rows] != kept.NNZ() || len(kept.ColIdx) != kept.NNZ() {
			t.Fatalf("mu=%v: compacted storage inconsistent", mu)
		}
	}
}

func TestThresholdSmallestRespectsBudget(t *testing.T) {
	a := randCSR(10, 10, 0.5, 27)
	budget := 0.25 * a.FrobNorm2()
	kept, dropped := a.ThresholdSmallest(math.Inf(1), budget)
	if !Add(1, kept, 1, dropped).Equal(a, 0) {
		t.Fatal("split must reconstruct the original")
	}
	if dropped.FrobNorm2() > budget {
		t.Fatalf("dropped mass %v exceeds budget %v", dropped.FrobNorm2(), budget)
	}
	if dropped.NNZ() == 0 {
		t.Fatal("expected some entries to be dropped")
	}
	// Greedy smallest-first: every kept entry below the limit should be ≥
	// the largest dropped entry, up to the budget boundary.
	var maxDropped float64
	for _, v := range dropped.Val {
		if av := math.Abs(v); av > maxDropped {
			maxDropped = av
		}
	}
	if maxDropped == 0 {
		t.Fatal("dropped entries should be nonzero")
	}
}

// vstack runs VStackCSRInto on a fresh destination.
func vstack(parts ...*CSR) *CSR {
	out := new(CSR)
	VStackCSRInto(out, parts...)
	return out
}

// TestVStackCSR stacks into one reused destination, a large stack then
// a smaller one, so rows or entries left over from the first show up.
func TestVStackCSR(t *testing.T) {
	a := randCSR(3, 5, 0.4, 61)
	b := randCSR(2, 5, 0.4, 62)
	c := randCSR(4, 5, 0.4, 63)
	var got CSR
	VStackCSRInto(&got, c, a, c, b)
	VStackCSRInto(&got, a, nil, b, NewCSR(0, 5), c)
	want := mat.VStack(mat.VStack(a.ToDense(), b.ToDense()), c.ToDense())
	if !got.ToDense().Equal(want, 0) {
		t.Fatal("VStackCSR content wrong")
	}
	if got.NNZ() != a.NNZ()+b.NNZ()+c.NNZ() || len(got.RowPtr) != got.Rows+1 {
		t.Fatal("VStackCSR nnz wrong")
	}
}

func TestVStackCSREmpty(t *testing.T) {
	out := vstack()
	if out.Rows != 0 || out.Cols != 0 {
		t.Fatal("empty stack should be 0×0")
	}
	out = vstack(nil, NewCSR(0, 3))
	if out.Rows != 0 {
		t.Fatal("all-empty stack should have no rows")
	}
}

func TestVStackCSRMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vstack(NewCSR(2, 3), NewCSR(2, 4))
}

func TestSpGEMMFlopsMatchesActualWork(t *testing.T) {
	a := randCSR(8, 6, 0.4, 64)
	b := randCSR(6, 7, 0.4, 65)
	// Reference: count multiply-adds directly.
	var muls float64
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			bc, _ := b.RowView(j)
			muls += float64(len(bc))
		}
	}
	if got := SpGEMMFlops(a, b); got != 2*muls {
		t.Fatalf("SpGEMMFlops = %v, want %v", got, 2*muls)
	}
}

func TestSpGEMMFlopsDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpGEMMFlops(NewCSR(2, 3), NewCSR(4, 2))
}

func TestEqualShapes(t *testing.T) {
	if NewCSR(2, 2).Equal(NewCSR(2, 3), 1) {
		t.Fatal("shape mismatch must not be equal")
	}
}

func TestDensity(t *testing.T) {
	a := randCSR(10, 10, 0.3, 28)
	want := float64(a.NNZ()) / 100.0
	if a.Density() != want {
		t.Fatal("density wrong")
	}
	if NewCSR(0, 5).Density() != 0 {
		t.Fatal("degenerate density should be 0")
	}
}

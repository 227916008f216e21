package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDense builds a deterministic random matrix for tests.
func randDense(r, c int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func TestNewDenseZeroed(t *testing.T) {
	d := NewDense(3, 4)
	r, c := d.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("dims = %d×%d, want 3×4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, d.At(i, j))
			}
		}
	}
}

func TestNewDenseFromRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	d := NewDenseFrom(2, 3, data)
	if d.At(0, 0) != 1 || d.At(0, 2) != 3 || d.At(1, 0) != 4 || d.At(1, 2) != 6 {
		t.Fatalf("unexpected layout: %v", d)
	}
	data[0] = 99
	if d.At(0, 0) == 99 {
		t.Fatal("NewDenseFrom must copy its input")
	}
}

func TestNewDenseFromBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewDenseFrom(2, 3, []float64{1, 2})
}

func TestAtSetOutOfRangePanics(t *testing.T) {
	d := NewDense(2, 2)
	for _, f := range []func(){
		func() { d.At(2, 0) },
		func() { d.At(0, -1) },
		func() { d.Set(-1, 0, 1) },
		func() { d.Set(0, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	d := randDense(5, 6, 1)
	v := d.View(1, 2, 3, 3)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatalf("view dims %d×%d", v.Rows, v.Cols)
	}
	if v.At(0, 0) != d.At(1, 2) {
		t.Fatal("view misaligned")
	}
	v.Set(0, 0, 42)
	if d.At(1, 2) != 42 {
		t.Fatal("view must alias parent storage")
	}
}

func TestViewEmpty(t *testing.T) {
	d := randDense(4, 4, 2)
	v := d.View(2, 2, 0, 0)
	if !v.IsEmpty() {
		t.Fatal("zero-size view should be empty")
	}
}

// A zero-width view of a tall matrix (TSVD's rank-0 truncation takes
// one) still has rows: Row, Clone and CopyFrom must work on every one.
func TestZeroWidthViewRows(t *testing.T) {
	d := randDense(196, 196, 5)
	for _, v := range []*Dense{d.View(0, 0, d.Rows, 0), d.View(3, 7, 0, 5), d.View(0, 196, 196, 0)} {
		for i := 0; i < v.Rows; i++ {
			if len(v.Row(i)) != 0 {
				t.Fatalf("%d×%d view: row %d has %d entries", v.Rows, v.Cols, i, len(v.Row(i)))
			}
		}
		c := v.Clone()
		if c.Rows != v.Rows || c.Cols != v.Cols || len(c.Data) != 0 {
			t.Fatalf("clone of a %d×%d view is %d×%d with %d values", v.Rows, v.Cols, c.Rows, c.Cols, len(c.Data))
		}
		NewDense(v.Rows, v.Cols).CopyFrom(v)
		v.CopyFrom(c)
	}
}

func TestCloneCompactsViews(t *testing.T) {
	d := randDense(5, 5, 3)
	v := d.View(1, 1, 3, 3)
	c := v.Clone()
	if c.Stride != c.Cols {
		t.Fatalf("clone stride %d != cols %d", c.Stride, c.Cols)
	}
	if !c.Equal(v, 0) {
		t.Fatal("clone differs from view")
	}
	c.Set(0, 0, -7)
	if v.At(0, 0) == -7 {
		t.Fatal("clone must not alias")
	}
}

func TestTranspose(t *testing.T) {
	d := randDense(3, 5, 4)
	tr := d.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if tr.At(j, i) != d.At(i, j) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		d := randDense(4, 7, seed)
		return d.T().T().Equal(d, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwapColsRows(t *testing.T) {
	d := randDense(4, 4, 5)
	orig := d.Clone()
	d.SwapCols(1, 3)
	d.SwapCols(1, 3)
	d.SwapRows(0, 2)
	d.SwapRows(0, 2)
	if !d.Equal(orig, 0) {
		t.Fatal("double swap should restore the matrix")
	}
}

func TestColSetCol(t *testing.T) {
	d := randDense(6, 3, 6)
	col := d.Col(1, nil)
	if len(col) != 6 {
		t.Fatalf("col length %d", len(col))
	}
	for i := 0; i < 6; i++ {
		if col[i] != d.At(i, 1) {
			t.Fatal("Col extraction wrong")
		}
	}
	neg := make([]float64, 6)
	for i := range neg {
		neg[i] = -col[i]
	}
	d.SetCol(1, neg)
	for i := 0; i < 6; i++ {
		if d.At(i, 1) != -col[i] {
			t.Fatal("SetCol wrong")
		}
	}
}

func TestFrobNormMatchesNaive(t *testing.T) {
	d := randDense(7, 5, 7)
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	want := math.Sqrt(s)
	if got := d.FrobNorm(); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("FrobNorm = %v, want %v", got, want)
	}
	if got := d.FrobNorm2(); math.Abs(got-s) > 1e-12*s {
		t.Fatalf("FrobNorm2 = %v, want %v", got, s)
	}
}

func TestFrobNormOverflowSafe(t *testing.T) {
	d := NewDense(1, 2)
	d.Set(0, 0, 1e200)
	d.Set(0, 1, 1e200)
	got := d.FrobNorm()
	want := 1e200 * math.Sqrt(2)
	if math.IsInf(got, 0) || math.Abs(got-want) > 1e-10*want {
		t.Fatalf("FrobNorm overflowed: %v", got)
	}
}

func TestInfNormAndMaxAbs(t *testing.T) {
	d := NewDenseFrom(2, 2, []float64{1, -5, 2, 2})
	if got := d.InfNorm(); got != 6 {
		t.Fatalf("InfNorm = %v, want 6", got)
	}
	if got := d.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %v, want 5", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := randDense(3, 3, 8)
	b := randDense(3, 3, 9)
	c := a.Clone()
	c.Add(b)
	c.Sub(b)
	if !c.Equal(a, 1e-14) {
		t.Fatal("Add then Sub should restore")
	}
	c.Scale(2)
	c.Sub(a)
	if !c.Equal(a, 1e-14) {
		t.Fatal("2a - a != a")
	}
}

func TestVStack(t *testing.T) {
	a := randDense(3, 2, 10)
	c := randDense(2, 2, 12)
	v := VStack(a, c)
	if v.Rows != 5 || v.Cols != 2 {
		t.Fatalf("VStack dims %d×%d", v.Rows, v.Cols)
	}
	if v.At(4, 1) != c.At(1, 1) {
		t.Fatal("VStack content wrong")
	}
}

func TestStackWithEmpty(t *testing.T) {
	a := randDense(3, 2, 13)
	if !VStack(nil, a).Equal(a, 0) || !VStack(a, NewDense(0, 0)).Equal(a, 0) {
		t.Fatal("VStack with empty should clone the other side")
	}
}

func TestPermuteRowsCols(t *testing.T) {
	d := randDense(3, 3, 14)
	perm := []int{2, 0, 1}
	pr := d.PermuteRows(perm)
	for i, p := range perm {
		for j := 0; j < 3; j++ {
			if pr.At(i, j) != d.At(p, j) {
				t.Fatal("PermuteRows wrong")
			}
		}
	}
	pc := d.PermuteCols(perm)
	for j, p := range perm {
		for i := 0; i < 3; i++ {
			if pc.At(i, j) != d.At(i, p) {
				t.Fatal("PermuteCols wrong")
			}
		}
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		d := randDense(n, n, seed)
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		return d.PermuteRows(perm).PermuteRows(inv).Equal(d, 0) &&
			d.PermuteCols(perm).PermuteCols(inv).Equal(d, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewDense(2, 2).Equal(NewDense(2, 3), 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

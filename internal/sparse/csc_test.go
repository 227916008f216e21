package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"sparselr/internal/mat"
)

func TestCSCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(7, 5, 0.35, seed)
		return a.ToCSC().ToCSR().Equal(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCSCColView(t *testing.T) {
	a := randCSR(6, 4, 0.5, 31)
	c := a.ToCSC()
	d := a.ToDense()
	for j := 0; j < 4; j++ {
		rows, vals := c.ColView(j)
		seen := make(map[int]float64)
		for k, i := range rows {
			seen[i] = vals[k]
		}
		for i := 0; i < 6; i++ {
			if got := seen[i]; got != d.At(i, j) {
				t.Fatalf("CSC col %d row %d: got %v want %v", j, i, got, d.At(i, j))
			}
		}
		// Strictly increasing row indices.
		for k := 1; k < len(rows); k++ {
			if rows[k] <= rows[k-1] {
				t.Fatal("CSC row indices not sorted")
			}
		}
	}
}

func TestCSCExtractColsDense(t *testing.T) {
	a := randCSR(7, 6, 0.4, 32)
	c := a.ToCSC()
	cols := []int{5, 1, 3}
	got := mat.NewDense(7, len(cols))
	c.ExtractColsDenseInto(got, cols)
	want := a.ExtractColsDense(cols)
	if !got.Equal(want, 0) {
		t.Fatal("CSC panel extraction disagrees with CSR")
	}
}

func TestCSCNNZAccounting(t *testing.T) {
	a := randCSR(8, 5, 0.4, 33)
	c := a.ToCSC()
	if len(c.Val) != a.NNZ() {
		t.Fatal("NNZ changed in conversion")
	}
	total := 0
	for j := 0; j < 5; j++ {
		total += c.ColNNZ(j)
	}
	if total != a.NNZ() {
		t.Fatal("per-column NNZ does not sum to total")
	}
	if c.ColsNNZ([]int{0, 1, 2, 3, 4}) != a.NNZ() {
		t.Fatal("ColsNNZ wrong")
	}
}

func TestCSCFrobNorm2(t *testing.T) {
	a := randCSR(6, 6, 0.4, 34)
	c := a.ToCSC()
	var s float64
	for _, v := range c.Val {
		s += v * v
	}
	if math.Abs(s-a.FrobNorm2()) > 1e-13*a.FrobNorm2() {
		t.Fatal("CSC FrobNorm2 mismatch")
	}
}

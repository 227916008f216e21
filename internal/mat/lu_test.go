package mat

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestLUSolveRoundTrip(t *testing.T) {
	a := randDense(6, 6, 61)
	x := randDense(6, 3, 62)
	b := Mul(a, x)
	got, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x, 1e-9) {
		t.Fatal("LU solve did not recover x")
	}
}

func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(5, 5, seed)
		// Make well conditioned by adding a diagonal shift.
		for i := 0; i < 5; i++ {
			a.Set(i, i, a.At(i, i)+6)
		}
		x := randDense(5, 2, seed+1)
		b := Mul(a, x)
		got, err := Solve(a, b)
		return err == nil && got.Equal(x, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(3, 3) // all zeros
	if _, err := LU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Rank-1 matrix.
	u := randDense(3, 1, 63)
	v := randDense(3, 1, 64)
	r1 := MulBT(u, v)
	if _, err := LU(r1); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for rank-1, got %v", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := LU(NewDense(3, 4)); err == nil {
		t.Fatal("expected an error for non-square LU")
	}
}

func TestSolveRight(t *testing.T) {
	a := randDense(4, 4, 65)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+5)
	}
	x := randDense(6, 4, 66)
	b := Mul(x, a)
	got := b.Clone()
	if err := SolveRightInPlace(got, a); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x, 1e-9) {
		t.Fatal("SolveRight did not recover x")
	}
}

func TestSolveUpper(t *testing.T) {
	r := denseFrom(3, 3, []float64{2, 1, -1, 0, 3, 2, 0, 0, 4})
	x := randDense(3, 2, 67)
	b := Mul(r, x)
	got, err := SolveUpper(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x, 1e-12) {
		t.Fatal("SolveUpper wrong")
	}
}

func TestSolveUpperSingular(t *testing.T) {
	r := denseFrom(2, 2, []float64{1, 2, 0, 0})
	if _, err := SolveUpper(r, NewDense(2, 1)); !errors.Is(err, ErrSingular) {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveRightSingularPropagates(t *testing.T) {
	a := NewDense(3, 3)
	if err := SolveRightInPlace(randDense(2, 3, 70), a); err == nil {
		t.Fatal("expected an error for a singular right-solve")
	}
}

// SolveRightInPlace must reproduce Solve(aᵀ, bᵀ)ᵀ bit for bit, including
// inputs that pivot and carry zero entries.
func TestSolveRightInPlaceMatchesTransposedSolve(t *testing.T) {
	for i, s := range [][2]int{{1, 1}, {7, 3}, {40, 8}, {5, 16}, {100, 32}} {
		a := randDense(s[1], s[1], int64(400+i))
		b := randDense(s[0], s[1], int64(500+i))
		for j := range b.Data {
			if j%4 == 1 {
				b.Data[j] = 0
			}
		}
		want, err := Solve(a.T(), b.T())
		if err != nil {
			t.Fatal(err)
		}
		got := b.Clone()
		if err := SolveRightInPlace(got, a); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want.T()) {
			t.Fatalf("%d×%d: in-place right solve differs from the transposed solve", s[0], s[1])
		}
	}
}

// The in-place right solve allocates only its k×k LU: the transposed
// copy, its header, the pivots and the factor.
func TestSolveRightInPlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := randDense(16, 16, 81)
	b := randDense(300, 16, 82)
	x := b.Clone()
	if got := testing.AllocsPerRun(10, func() {
		x.CopyFrom(b)
		if err := SolveRightInPlace(x, a); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Fatalf("SolveRightInPlace: %v allocs/op, want ≤ 4", got)
	}
}

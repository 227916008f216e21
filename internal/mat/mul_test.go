package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n³) triple loop used to validate the
// optimized kernels.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulMatchesNaive(t *testing.T) {
	a := randDense(7, 5, 21)
	b := randDense(5, 9, 22)
	got := Mul(a, b)
	want := naiveMul(a, b)
	if !got.Equal(want, 1e-12) {
		t.Fatal("Mul does not match the naive reference")
	}
}

func TestMulLargeTriggersParallelPath(t *testing.T) {
	a := randDense(80, 70, 23)
	b := randDense(70, 60, 24)
	got := Mul(a, b)
	want := naiveMul(a, b)
	if !got.Equal(want, 1e-10) {
		t.Fatal("parallel Mul path diverges from reference")
	}
}

func TestMulIdentity(t *testing.T) {
	a := randDense(6, 6, 25)
	if !Mul(a, Identity(6)).Equal(a, 1e-14) || !Mul(Identity(6), a).Equal(a, 1e-14) {
		t.Fatal("multiplication by identity must be exact-ish")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension mismatch panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulAddAccumulates(t *testing.T) {
	a := randDense(4, 3, 26)
	b := randDense(3, 5, 27)
	dst := randDense(4, 5, 28)
	want := dst.Clone()
	want.Add(naiveMul(a, b))
	mulAdd(dst, a, b)
	if !dst.Equal(want, 1e-12) {
		t.Fatal("MulAdd wrong")
	}
}

func TestMulSub(t *testing.T) {
	a := randDense(4, 3, 29)
	b := randDense(3, 5, 30)
	dst := randDense(4, 5, 31)
	want := dst.Clone()
	want.Sub(naiveMul(a, b))
	MulSub(dst, a, b)
	if !dst.Equal(want, 1e-12) {
		t.Fatal("MulSub wrong")
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(6, 4, seed)
		b := randDense(6, 5, seed+1)
		return MulT(a, b).Equal(Mul(a.T(), b), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulBTMatchesExplicitTranspose(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(4, 6, seed)
		b := randDense(5, 6, seed+1)
		return MulBT(a, b).Equal(Mul(a, b.T()), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAndMulTVec(t *testing.T) {
	a := randDense(4, 3, 33)
	x := []float64{1, -2, 0.5}
	got := Mul(a, &Dense{Rows: 3, Cols: 1, Stride: 1, Data: x})
	for i := 0; i < 4; i++ {
		want := a.At(i, 0)*1 + a.At(i, 1)*-2 + a.At(i, 2)*0.5
		if math.Abs(got.At(i, 0)-want) > 1e-14 {
			t.Fatal("a·x wrong")
		}
	}
}

func TestDotAxpyNrm2(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
	z := append([]float64(nil), y...)
	Axpy(2, x, z)
	for i := range z {
		if z[i] != y[i]+2*x[i] {
			t.Fatal("Axpy wrong")
		}
	}
	if got, want := Nrm2([]float64{3, 4}), 5.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("Nrm2 = %v", got)
	}
	if Nrm2(nil) != 0 {
		t.Fatal("Nrm2 of empty should be 0")
	}
}

func TestNrm2OverflowSafe(t *testing.T) {
	got := Nrm2([]float64{1e300, 1e300})
	if math.IsInf(got, 0) {
		t.Fatal("Nrm2 overflowed")
	}
	want := 1e300 * math.Sqrt2
	if math.Abs(got-want) > 1e-10*want {
		t.Fatalf("Nrm2 = %v, want %v", got, want)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(4, 3, seed)
		b := randDense(3, 5, seed+1)
		c := randDense(5, 2, seed+2)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return left.Equal(right, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

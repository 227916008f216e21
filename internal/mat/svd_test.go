package mat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// matrixWithSpectrum builds an m×n matrix with the given singular values
// via random orthogonal factors.
func matrixWithSpectrum(m, n int, sv []float64, seed int64) *Dense {
	qu := Orth(randDense(m, len(sv), seed))
	qv := Orth(randDense(n, len(sv), seed+1))
	us := qu.Clone()
	for j := 0; j < len(sv); j++ {
		for i := 0; i < m; i++ {
			us.Set(i, j, us.At(i, j)*sv[j])
		}
	}
	return MulBT(us, qv)
}

func TestSVDReconstruction(t *testing.T) {
	for _, dims := range [][2]int{{8, 5}, {5, 5}, {5, 8}} {
		a := randDense(dims[0], dims[1], int64(dims[0]*7+dims[1]))
		u, s, v := SVD(a)
		// Reconstruct U·diag(S)·Vᵀ.
		us := u.Clone()
		for j := 0; j < len(s); j++ {
			for i := 0; i < u.Rows; i++ {
				us.Set(i, j, us.At(i, j)*s[j])
			}
		}
		got := MulBT(us, v)
		if !got.Equal(a, 1e-10) {
			t.Fatalf("SVD reconstruction failed for %v", dims)
		}
		if e := orthogonalityError(u); e > 1e-11 {
			t.Fatalf("U not orthonormal: %v", e)
		}
		if e := orthogonalityError(v); e > 1e-11 {
			t.Fatalf("V not orthonormal: %v", e)
		}
		if !sort.IsSorted(sort.Reverse(sort.Float64Slice(s))) {
			t.Fatal("singular values not descending")
		}
	}
}

func TestSVDKnownSpectrum(t *testing.T) {
	want := []float64{10, 5, 1, 0.1}
	a := matrixWithSpectrum(12, 8, want, 101)
	_, s, _ := SVD(a)
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-9*want[0] {
			t.Fatalf("σ%d = %v, want %v", i, s[i], w)
		}
	}
	for i := len(want); i < len(s); i++ {
		if s[i] > 1e-9*want[0] {
			t.Fatalf("σ%d = %v should be ~0", i, s[i])
		}
	}
}

func TestSVDFrobeniusIdentity(t *testing.T) {
	// ‖A‖_F² = Σσᵢ².
	f := func(seed int64) bool {
		a := randDense(7, 5, seed)
		_, s, _ := SVD(a)
		var ss float64
		for _, v := range s {
			ss += v * v
		}
		return math.Abs(ss-a.FrobNorm2()) < 1e-9*a.FrobNorm2()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSVDEckartYoungOptimality(t *testing.T) {
	// The rank-k truncation error equals sqrt(Σ_{i>k} σᵢ²) and is
	// no worse than a random rank-k approximation.
	a := randDense(10, 8, 103)
	u, s, v := SVD(a)
	k := 3
	uk := u.View(0, 0, 10, k).Clone()
	vk := v.View(0, 0, 8, k).Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < 10; i++ {
			uk.Set(i, j, uk.At(i, j)*s[j])
		}
	}
	approx := MulBT(uk, vk)
	diff := a.Clone()
	diff.Sub(approx)
	var tail float64
	for i := k; i < len(s); i++ {
		tail += s[i] * s[i]
	}
	if math.Abs(diff.FrobNorm()-math.Sqrt(tail)) > 1e-9*a.FrobNorm() {
		t.Fatal("truncation error does not match singular value tail")
	}
}

func TestSingularValuesWideAndTall(t *testing.T) {
	a := randDense(6, 15, 105)
	st := SingularValues(a)
	sm := SingularValues(a.T())
	if len(st) != 6 || len(sm) != 6 {
		t.Fatalf("expected 6 singular values, got %d and %d", len(st), len(sm))
	}
	for i := range st {
		if math.Abs(st[i]-sm[i]) > 1e-9*st[0] {
			t.Fatal("singular values of A and Aᵀ must agree")
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	_, s, _ := SVD(a)
	for _, v := range s {
		if v != 0 {
			t.Fatal("zero matrix must have zero singular values")
		}
	}
}

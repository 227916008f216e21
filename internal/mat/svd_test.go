package mat

import (
	"math"
	"math/rand"
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

func TestSingularValuesGramPathMatchesJacobi(t *testing.T) {
	// Force the Gram path with a square matrix larger than the direct
	// threshold? The threshold is 128; use a small one and compare
	// SymEigenValues-based values to the Jacobi SVD directly instead.
	a := randDense(40, 40, 104)
	_, sj, _ := SVD(a)
	g := MulT(a, a)
	eig := SymEigenValues(g)
	s := make([]float64, len(eig))
	for i, e := range eig {
		if e < 0 {
			e = 0
		}
		s[i] = math.Sqrt(e)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	for i := range sj {
		if math.Abs(s[i]-sj[i]) > 1e-7*sj[0] {
			t.Fatalf("Gram σ%d = %v vs Jacobi %v", i, s[i], sj[i])
		}
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

func TestSymEigenValuesDiagonal(t *testing.T) {
	d := NewDense(4, 4)
	want := []float64{3, -1, 7, 0.5}
	for i, v := range want {
		d.Set(i, i, v)
	}
	got := SymEigenValues(d)
	sort.Float64s(got)
	wantSorted := append([]float64(nil), want...)
	sort.Float64s(wantSorted)
	for i := range want {
		if math.Abs(got[i]-wantSorted[i]) > 1e-12 {
			t.Fatalf("eig mismatch: %v vs %v", got, wantSorted)
		}
	}
}

func TestSymEigenValuesTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		g := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		var trace float64
		for i := 0; i < n; i++ {
			trace += g.At(i, i)
		}
		eig := SymEigenValues(g)
		var sum float64
		for _, e := range eig {
			sum += e
		}
		return math.Abs(trace-sum) < 1e-9*(1+math.Abs(trace))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Norm2Est is power iteration on AᵀA, which converges at the rate
// (σ₂/σ₁)²: its 1e-6 accuracy is a promise for matrices with a spectral
// gap, not for σ₁ ≈ σ₂. Every draw is random — singular vectors and
// singular values — with σ₂ ≤ σ₁/1.5 guaranteed.
func TestNorm2EstMatchesSVD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sv := make([]float64, 11)
		sv[0] = 0.1 + 10*rng.Float64()
		sv[1] = sv[0] / (1.5 + 2*rng.Float64())
		for i := 2; i < len(sv); i++ {
			sv[i] = sv[1] * rng.Float64()
		}
		a := matrixWithSpectrum(15, 11, sv, seed)
		_, s, _ := SVD(a)
		est := Norm2Est(a, 1e-10, 500)
		return math.Abs(est-s[0]) < 1e-6*s[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2EstEdgeCases(t *testing.T) {
	if Norm2Est(NewDense(0, 3), 0, 0) != 0 {
		t.Fatal("empty matrix should give 0")
	}
	if Norm2Est(NewDense(4, 4), 0, 0) != 0 {
		t.Fatal("zero matrix should give 0")
	}
	d := NewDense(3, 3)
	d.Set(1, 1, 7)
	if got := Norm2Est(d, 1e-12, 100); math.Abs(got-7) > 1e-9 {
		t.Fatalf("diagonal spectral norm %v, want 7", got)
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

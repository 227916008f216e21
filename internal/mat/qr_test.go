package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// orthogonalityError returns ‖QᵀQ − I‖∞.
func orthogonalityError(q *Dense) float64 {
	g := MulT(q, q)
	g.Sub(Identity(q.Cols))
	return g.InfNorm()
}

func TestQRReconstruction(t *testing.T) {
	for _, dims := range [][2]int{{8, 5}, {5, 5}, {5, 8}, {20, 3}, {1, 1}} {
		a := randDense(dims[0], dims[1], int64(dims[0]*100+dims[1]))
		q, r := QR(a)
		got := Mul(q, r)
		if !got.Equal(a, 1e-11) {
			t.Fatalf("QR reconstruction failed for %v", dims)
		}
		if e := orthogonalityError(q); e > 1e-12 {
			t.Fatalf("Q not orthonormal for %v: %v", dims, e)
		}
		// R upper trapezoidal.
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < i && j < r.Cols; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R not upper triangular at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestQRPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(9, 4, seed)
		q, r := QR(a)
		return Mul(q, r).Equal(a, 1e-10) && orthogonalityError(q) < 1e-11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQRZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	q, r := QR(a)
	if !Mul(q, r).Equal(a, 0) {
		t.Fatal("QR of zero matrix must reconstruct zero")
	}
}

// The R-only factorization (QRWorkspace.FactorR, no Q formed) leaves
// QR's R in the upper triangle bit for bit.
func TestROnlyMatchesQR(t *testing.T) {
	var ws QRWorkspace
	for _, dims := range [][2]int{{10, 4}, {4, 10}, {120, 60}} {
		a := randDense(dims[0], dims[1], 77)
		_, r := QR(a)
		f := a.Clone()
		ws.FactorR(f)
		if got := UpperRows(f, r.Rows, r.Cols); !sameBits(got, r) {
			t.Fatalf("%v: FactorR's R differs from QR's", dims)
		}
	}
}

// Orth is bitwise the reference built on the thinQ-formed QRCP, on
// full-rank, rank-deficient, zero, wide and blocked-size inputs and at
// several GOMAXPROCS.
func TestOrthMatchesReference(t *testing.T) {
	lowRank := MulBT(randDense(40, 3, 81), randDense(9, 3, 82))
	zeroCol := randDense(30, 6, 83)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 2, 0)
	}
	inputs := []*Dense{
		randDense(20, 5, 80), lowRank, zeroCol, NewDense(7, 4), NewDense(0, 3),
		randDense(5, 12, 84), randDense(300, 64, 85), MulBT(randDense(200, 50, 86), randDense(60, 50, 87)),
	}
	for _, procs := range []int{1, 2, 4} {
		withMaxProcs(procs, func() {
			for i, a := range inputs {
				got, want := Orth(a), orthRef(a)
				if !sameBits(got, want) || got.Stride != got.Cols {
					t.Fatalf("GOMAXPROCS %d input %d (%d×%d): Orth %d×%d (stride %d) differs from the reference %d×%d",
						procs, i, a.Rows, a.Cols, got.Rows, got.Cols, got.Stride, want.Rows, want.Cols)
				}
			}
		})
	}
}

func TestOrthFullRank(t *testing.T) {
	a := randDense(10, 4, 41)
	q := Orth(a)
	if q.Cols != 4 {
		t.Fatalf("Orth rank = %d, want 4", q.Cols)
	}
	if e := orthogonalityError(q); e > 1e-12 {
		t.Fatalf("Orth output not orthonormal: %v", e)
	}
	// Range check: a's columns must be representable as q·(qᵀa).
	proj := Mul(q, MulT(q, a))
	if !proj.Equal(a, 1e-10) {
		t.Fatal("Orth basis does not span range(a)")
	}
}

func TestOrthRankDeficient(t *testing.T) {
	// Build a rank-2 matrix from two outer products.
	u := randDense(8, 2, 42)
	v := randDense(5, 2, 43)
	a := MulBT(u, v)
	q := Orth(a)
	if q.Cols != 2 {
		t.Fatalf("Orth rank = %d, want 2", q.Cols)
	}
	proj := Mul(q, MulT(q, a))
	if !proj.Equal(a, 1e-10) {
		t.Fatal("rank-deficient Orth basis does not span range(a)")
	}
}

func TestOrthZero(t *testing.T) {
	q := Orth(NewDense(5, 3))
	if q.Cols != 0 || q.Rows != 5 {
		t.Fatalf("Orth of zero = %d×%d, want 5×0", q.Rows, q.Cols)
	}
	q = Orth(NewDense(0, 0))
	if q.Rows != 0 {
		t.Fatal("Orth of empty should be empty")
	}
}

func TestQRCPReconstruction(t *testing.T) {
	a := randDense(9, 6, 44)
	q, r, perm := qrcp(a)
	ap := a.PermuteCols(perm)
	if !Mul(q, r).Equal(ap, 1e-11) {
		t.Fatal("QRCP reconstruction failed")
	}
	if e := orthogonalityError(q); e > 1e-12 {
		t.Fatalf("QRCP Q not orthonormal: %v", e)
	}
}

func TestQRCPDiagonalNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		a := randDense(12, 7, seed)
		_, r, _ := qrcp(a)
		for i := 1; i < r.Rows && i < r.Cols; i++ {
			// Allow a tiny slack for roundoff in the norm downdating.
			if math.Abs(r.At(i, i)) > math.Abs(r.At(i-1, i-1))*(1+1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQRCPPermIsPermutation(t *testing.T) {
	a := randDense(6, 10, 45)
	_, _, perm := qrcp(a)
	seen := make([]bool, 10)
	for _, p := range perm {
		if p < 0 || p >= 10 || seen[p] {
			t.Fatal("perm is not a valid permutation")
		}
		seen[p] = true
	}
}

func TestQRCPRevealsRank(t *testing.T) {
	// Rank-3 matrix: QRCP diagonal should collapse after 3 entries.
	u := randDense(10, 3, 46)
	v := randDense(7, 3, 47)
	a := MulBT(u, v)
	_, r, _ := qrcp(a)
	if math.Abs(r.At(2, 2)) < 1e-10 {
		t.Fatal("rank-3 matrix should have 3 significant diagonal entries")
	}
	for i := 3; i < r.Rows && i < r.Cols; i++ {
		if math.Abs(r.At(i, i)) > 1e-10*math.Abs(r.At(0, 0)) {
			t.Fatalf("diagonal entry %d should be negligible, got %v", i, r.At(i, i))
		}
	}
}

func TestQRCPWideMatrix(t *testing.T) {
	a := randDense(4, 9, 48)
	q, r, perm := qrcp(a)
	if !Mul(q, r).Equal(a.PermuteCols(perm), 1e-11) {
		t.Fatal("QRCP failed on wide matrix")
	}
}

func TestQRCPSelectAgreesWithQRCP(t *testing.T) {
	a := randDense(8, 6, 49)
	_, rFull, permFull := qrcp(a)
	r, perm := QRCPSelect(a)
	for i := range perm {
		if perm[i] != permFull[i] {
			t.Fatal("QRCPSelect permutation differs")
		}
	}
	if !r.Equal(rFull, 0) {
		t.Fatal("QRCPSelect R differs")
	}
}

func TestApplyQAgainstExplicit(t *testing.T) {
	a := randDense(7, 4, 50)
	qf := houseQR(a)
	qFull := qf.thinQ(7) // full 7×7 Q
	if e := orthogonalityError(qFull); e > 1e-12 {
		t.Fatalf("full Q not orthogonal: %v", e)
	}
	b := randDense(7, 3, 51)
	qb := b.Clone()
	qf.applyQ(qb)
	if !qb.Equal(Mul(qFull, b), 1e-11) {
		t.Fatal("applyQ disagrees with explicit Q")
	}
	qtb := b.Clone()
	qf.applyQT(qtb)
	if !qtb.Equal(MulT(qFull, b), 1e-11) {
		t.Fatal("applyQT disagrees with explicit Qᵀ")
	}
}

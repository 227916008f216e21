package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Property test for the determinism contract: every dense multiply must
// produce bitwise identical results at every GOMAXPROCS, because each
// output element is accumulated in ascending k order seeded from the
// destination regardless of how the loops are chunked. The shapes mix
// hand-picked adversarial cases (micro-kernel remainders, blocking-edge
// straddles, a depth beyond the packed-B cap) with randomized draws.
func propShapes(t *testing.T) [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 2},       // everything below the tile sizes
		{4, 1, 4},       // k = 1
		{37, 40, 40},    // m % gemmMR != 0 around the threshold
		{64, 255, 33},   // k just below gemmKC
		{64, 256, 33},   // k = gemmKC exactly
		{64, 257, 33},   // k straddles into a second depth block
		{12, 40, 511},   // n just below gemmNC
		{12, 40, 513},   // n straddles into a second jc block
		{8, 2050, 12},   // k beyond gemmKCC: two shared-B slices
		{511, 16, 16},   // tall with row remainder
		{16, 16, 18},    // n % gemmNR != 0
		{2, 300, 600},   // short m: the column-panel split path
		{100, 100, 100}, // square above the threshold
	}
	rng := rand.New(rand.NewSource(20260807))
	for i := 0; i < 10; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(70), 1 + rng.Intn(300), 1 + rng.Intn(70)})
	}
	return shapes
}

// propProcs are the GOMAXPROCS settings every shape is run under.
func propProcs() []int {
	ps := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		ps = append(ps, n)
	}
	return ps
}

func TestPropMulFamilyBitwiseAcrossProcs(t *testing.T) {
	procs := propProcs()
	for _, s := range propShapes(t) {
		m, k, n := s[0], s[1], s[2]
		a := randDense(m, k, int64(m*7+k))
		b := randDense(k, n, int64(k*11+n))
		bt := randDense(n, k, int64(n*13+k)) // for MulBT: out is m×n
		at := randDense(k, m, int64(m*17+k)) // for MulT: aᵀ·b with a k×m
		base := randDense(m, n, int64(m+n))

		type result struct{ mul, add, sub, mt, mbt *Dense }
		var ref result
		for pi, p := range procs {
			var got result
			withMaxProcs(p, func() {
				got.mul = Mul(a, b)
				got.add = base.Clone()
				mulAdd(got.add, a, b)
				got.sub = base.Clone()
				MulSub(got.sub, a, b)
				got.mt = MulT(at, b) // (k×m)ᵀ·(k×n) = m×n
				got.mbt = MulBT(a, bt)
			})
			if pi == 0 {
				ref = got
				continue
			}
			for _, c := range []struct {
				name   string
				ra, rb *Dense
			}{
				{"Mul", ref.mul, got.mul},
				{"MulAdd", ref.add, got.add},
				{"MulSub", ref.sub, got.sub},
				{"MulT", ref.mt, got.mt},
				{"MulBT", ref.mbt, got.mbt},
			} {
				if !bitwiseEqual(c.ra, c.rb) {
					t.Fatalf("%s %v: GOMAXPROCS=%d differs bitwise from GOMAXPROCS=%d",
						c.name, s, p, procs[0])
				}
			}
		}
		// The naive reference pins the values themselves, not just their
		// reproducibility.
		if want := naiveMul(a, b); !ref.mul.Equal(want, 1e-10) {
			t.Fatalf("Mul %v: deviates from naive reference", s)
		}
	}
}

// MulInto must fully overwrite a dirty destination: seed it with NaN
// poison (any surviving NaN propagates and fails bitwise equality with
// the freshly allocated Mul result). This is the contract that lets
// MulInto-style callers reuse a workspace without zeroing it.
func TestPropMulIntoOverwritesDirtyDst(t *testing.T) {
	for _, s := range propShapes(t) {
		m, k, n := s[0], s[1], s[2]
		a := randDense(m, k, int64(m*3+k))
		b := randDense(k, n, int64(k*5+n))
		want := Mul(a, b)
		dst := NewDense(m, n)
		for i := range dst.Data {
			dst.Data[i] = math.NaN()
		}
		MulInto(dst, a, b)
		if !bitwiseEqual(dst, want) {
			t.Fatalf("MulInto %v: dirty destination leaked into the result", s)
		}
	}
}

// stridedCopy returns a copy of d as a view inside a wider NaN-filled
// parent (Stride = Cols + pad), the layout of the solvers' grow-only
// stores: a kernel that reads past a row's Cols picks up the NaN.
func stridedCopy(d *Dense, pad int) *Dense {
	par := NewDense(d.Rows, d.Cols+pad)
	for i := range par.Data {
		par.Data[i] = math.NaN()
	}
	v := par.View(0, 1, d.Rows, d.Cols)
	v.CopyFrom(d)
	return v
}

// MulTSub must be MulSub on an explicit transpose, bit for bit: on the
// serial and the packed path, on strided views, across ragged
// gemmMR/gemmNR edges and at every GOMAXPROCS.
func TestMulTSubMatchesMulSubTransposed(t *testing.T) {
	shapes := append(propShapes(t),
		[3]int{5, 7, 3},     // serial, ragged rows and columns
		[3]int{37, 300, 41}, // packed row split, ragged rows and columns
		[3]int{6, 700, 9},   // packed, m too short to split rows
	)
	var serial, packed int
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		if m*k*n < gemmParallelThreshold {
			serial++
		} else {
			packed++
		}
		a := randDense(k, m, int64(m*19+k)) // aᵀ is m×k
		for i := range a.Data {
			if i%5 == 0 {
				a.Data[i] = 0 // the serial paths skip zero multipliers
			}
		}
		b := randDense(k, n, int64(k*23+n))
		base := randDense(m, n, int64(m*29+n))
		want := base.Clone()
		MulSub(want, a.T(), b)
		for _, p := range propProcs() {
			for _, strided := range []bool{false, true} {
				as, bs, dst := a, b, base.Clone()
				if strided {
					as, bs, dst = stridedCopy(a, 3), stridedCopy(b, 2), stridedCopy(base, 5)
				}
				withMaxProcs(p, func() { MulTSub(dst, as, bs) })
				if !sameBits(dst, want) {
					t.Fatalf("MulTSub %v (strided %v) at GOMAXPROCS=%d differs bitwise from MulSub(dst, a.T(), b)", s, strided, p)
				}
			}
		}
	}
	if serial == 0 || packed == 0 {
		t.Fatalf("shapes cover %d serial and %d packed products, want both paths", serial, packed)
	}
}

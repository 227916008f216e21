package sketch

import (
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

func testCSR(m, n, nnzPerRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for t := 0; t < nnzPerRow; t++ {
			b.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return b.ToCSR()
}

func maxAbsDiff(a, b *mat.Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var m float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// The Gaussian sketcher must replay the exact historical stream: an n×k
// row-major NormFloat64 fill per block, consecutive blocks continuing the
// same source. Seed results across the repo depend on this.
func TestGaussianReplaysHistoricalStream(t *testing.T) {
	const n, seed = 37, 99
	sk := New(Gaussian, n, seed, 0)
	rng := rand.New(rand.NewSource(seed))
	for _, k := range []int{8, 5, 8} {
		blk := sk.Next(k)
		want := mat.NewDense(n, k)
		for i := range want.Data {
			want.Data[i] = rng.NormFloat64()
		}
		if d := maxAbsDiff(blk.Dense(), want); d != 0 {
			t.Fatalf("Gaussian block (k=%d) deviates from historical fill by %g", k, d)
		}
	}
	if sk.Draws() != n*(8+5+8) {
		t.Fatalf("draws = %d, want %d", sk.Draws(), n*(8+5+8))
	}
}

// Every structured apply must agree with the dense reference product
// against the materialized Ω.
func TestApplyMatchesDenseReference(t *testing.T) {
	a := testCSR(120, 90, 6, 1)
	x := mat.NewDense(17, 90)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, kind := range []Kind{Gaussian, SparseSign, SRTT} {
		for _, k := range []int{1, 7, 16} {
			sk := New(kind, 90, 42, 4)
			blk := sk.Next(k)
			om := blk.Dense()

			got := blk.MulCSR(a)
			want := a.MulDense(om)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%v k=%d: MulCSR deviates by %g", kind, k, d)
			}
			into := mat.NewDense(a.Rows, k)
			blk.MulCSRInto(into, a)
			if d := maxAbsDiff(into, want); d > 1e-12 {
				t.Errorf("%v k=%d: MulCSRInto deviates by %g", kind, k, d)
			}

			dd := mat.NewDense(x.Rows, k)
			blk.MulDenseInto(dd, x)
			wd := mat.Mul(x, om)
			if d := maxAbsDiff(dd, wd); d > 1e-12 {
				t.Errorf("%v k=%d: MulDenseInto deviates by %g", kind, k, d)
			}

			lo, hi := 20, 71
			dr := mat.NewDense(x.Rows, k)
			blk.MulDenseRangeInto(dr, x, lo, hi)
			wr := mat.Mul(x.View(0, lo, x.Rows, hi-lo).Clone(), om.View(lo, 0, hi-lo, k).Clone())
			if d := maxAbsDiff(dr, wr); d > 1e-12 {
				t.Errorf("%v k=%d: MulDenseRangeInto deviates by %g", kind, k, d)
			}
		}
	}
}

// Gaussian applies are not just close but bitwise equal to the shared
// kernels the solvers used before the sketch layer.
func TestGaussianApplyBitIdentical(t *testing.T) {
	a := testCSR(200, 150, 8, 3)
	sk := New(Gaussian, 150, 7, 0)
	blk := sk.Next(8)
	om := blk.Dense()
	got := blk.MulCSR(a)
	want := a.MulDense(om)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Gaussian MulCSR not bitwise identical at %d", i)
		}
	}
}

// Same seed → same stream; FastForward lands at the same point as
// drawing, so a stream rebuilt from the seed continues it.
func TestDeterminismCloneFastForward(t *testing.T) {
	for _, kind := range []Kind{Gaussian, SparseSign, SRTT} {
		s1 := New(kind, 64, 5, 4)
		s2 := New(kind, 64, 5, 4)
		b1 := s1.Next(8)
		b2 := s2.Next(8)
		if d := maxAbsDiff(b1.Dense(), b2.Dense()); d != 0 {
			t.Fatalf("%v: same seed diverged by %g", kind, d)
		}
		// FastForward by the recorded draw count must land where s1 is.
		f := New(kind, 64, 5, 4)
		f.FastForward(s1.Draws())
		nf := f.Next(8).Dense()
		ns := s1.Next(8).Dense()
		if d := maxAbsDiff(nf, ns); d != 0 {
			t.Fatalf("%v: fast-forward diverged by %g", kind, d)
		}
	}
}

// SparseSign structural properties: exactly s = min(nnzPerRow, k) entries
// per row, distinct columns, values ±1/√s.
func TestSparseSignStructure(t *testing.T) {
	const n = 50
	for _, tc := range []struct{ k, nnz, wantS int }{{16, 4, 4}, {3, 8, 3}, {8, 0, DefaultSparseNNZ}} {
		sk := New(SparseSign, n, 11, tc.nnz)
		om := sk.Next(tc.k).Dense()
		inv := 1 / math.Sqrt(float64(tc.wantS))
		for j := 0; j < n; j++ {
			row := om.Row(j)
			cnt := 0
			for _, v := range row {
				if v == 0 {
					continue
				}
				cnt++
				if math.Abs(math.Abs(v)-inv) > 1e-15 {
					t.Fatalf("k=%d nnz=%d: entry %g not ±1/√%d", tc.k, tc.nnz, v, tc.wantS)
				}
			}
			if cnt != tc.wantS {
				t.Fatalf("k=%d nnz=%d row %d: %d nonzeros, want %d", tc.k, tc.nnz, j, cnt, tc.wantS)
			}
		}
	}
}

// The SRTT must preserve norms on average (the 1/√k scaling argument):
// over a few probe vectors, ‖xᵀΩ‖² should be within a factor ~2 of ‖x‖².
func TestSRTTNormPreservation(t *testing.T) {
	const n, k = 256, 32
	sk := New(SRTT, n, 17, 0)
	blk := sk.Next(k)
	rng := rand.New(rand.NewSource(23))
	x := mat.NewDense(8, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := mat.NewDense(8, k)
	blk.MulDenseInto(y, x)
	var in2, out2 float64
	in2 = x.FrobNorm2()
	out2 = y.FrobNorm2()
	if ratio := out2 / in2; ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("SRTT norm ratio %g outside [0.4, 2.5]", ratio)
	}
}

// Blocks are GOMAXPROCS-deterministic in the row-parallel regime: the
// parallel SparseSign and SRTT CSR applies must equal their serial
// bodies. (The threshold branch is size-based, so force a large product.)
func TestApplyParallelMatchesSerial(t *testing.T) {
	a := testCSR(3000, 400, 16, 9)
	for _, kind := range []Kind{SparseSign, SRTT} {
		sk := New(kind, 400, 31, 6)
		blk := sk.Next(32)
		got := blk.MulCSR(a) // parallel path at default GOMAXPROCS
		want := a.MulDense(blk.Dense())
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("%v: parallel apply deviates by %g", kind, d)
		}
	}
}

// The SparseSign CSR apply is allocation-free in steady state (satellite
// requirement: the sketch hot path must not churn the GC).
func TestSparseSignApplyAllocFree(t *testing.T) {
	a := testCSR(300, 200, 4, 13) // nnz·s below the parallel threshold
	sk := New(SparseSign, 200, 3, 4)
	dst := mat.NewDense(300, 8)
	blk := sk.Next(8)
	allocs := testing.AllocsPerRun(50, func() {
		blk.MulCSRInto(dst, a)
	})
	if allocs != 0 {
		t.Fatalf("SparseSign MulCSRInto allocates %v per run, want 0", allocs)
	}
	// Drawing the next block from a warmed sketcher is also free.
	sk.Next(8)
	allocs = testing.AllocsPerRun(50, func() {
		blk = sk.Next(8)
	})
	if allocs != 0 {
		t.Fatalf("SparseSign Next allocates %v per run after warmup, want 0", allocs)
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"gaussian": Gaussian, "": Gaussian, "dense": Gaussian,
		"sparsesign": SparseSign, "sparse": SparseSign,
		"srtt": SRTT, "srht": SRTT,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind(bogus) succeeded")
	}
}

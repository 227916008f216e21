package sparse

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"sparselr/internal/mat"
)

func withMaxProcs(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

func denseBitwiseEqual(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

func csrBitwiseEqual(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// spmmCases straddle the nnz×width parallel threshold (2^15): the small
// cases stay serial under any GOMAXPROCS, the large ones take the
// row-parallel (or accumulator-parallel) path.
var spmmCases = []struct {
	rows, cols int
	density    float64
	width      int
}{
	{30, 25, 0.1, 4},     // tiny, serial
	{200, 150, 0.05, 8},  // below threshold
	{400, 300, 0.05, 16}, // near threshold
	{600, 500, 0.05, 32}, // parallel
	{1000, 700, 0.02, 64},
}

func TestMulDenseParallelMatchesSerialBitwise(t *testing.T) {
	for _, tc := range spmmCases {
		a := randCSR(tc.rows, tc.cols, tc.density, int64(tc.rows+tc.width))
		b := randDense(tc.cols, tc.width, int64(tc.cols))
		var serial, parallel *mat.Dense
		withMaxProcs(1, func() { serial = a.MulDense(b) })
		withMaxProcs(4, func() { parallel = a.MulDense(b) })
		if !denseBitwiseEqual(serial, parallel) {
			t.Fatalf("MulDense %+v: parallel result differs from serial", tc)
		}
	}
}

func TestMulTDenseParallelMatchesSerialBitwise(t *testing.T) {
	for _, tc := range spmmCases {
		a := randCSR(tc.rows, tc.cols, tc.density, int64(tc.rows*3+tc.width))
		b := randDense(tc.rows, tc.width, int64(tc.rows))
		var serial, parallel *mat.Dense
		withMaxProcs(1, func() { serial = a.MulTDense(b) })
		withMaxProcs(4, func() { parallel = a.MulTDense(b) })
		// The column-strip split gives every output element the exact
		// serial accumulation order, so equality is bitwise (the old
		// per-chunk-partials path only matched to rounding).
		if !denseBitwiseEqual(serial, parallel) {
			t.Fatalf("MulTDense %+v: parallel result differs from serial", tc)
		}
	}
}

func TestMulTDenseSingleProcBitwiseSerial(t *testing.T) {
	tc := spmmCases[len(spmmCases)-1]
	a := randCSR(tc.rows, tc.cols, tc.density, 77)
	b := randDense(tc.rows, tc.width, 78)
	var first, second *mat.Dense
	withMaxProcs(1, func() {
		first = a.MulTDense(b)
		second = a.MulTDense(b)
	})
	if !denseBitwiseEqual(first, second) {
		t.Fatal("MulTDense not deterministic at GOMAXPROCS=1")
	}
}

func TestSpGEMMParallelMatchesSerialBitwise(t *testing.T) {
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{20, 0.2},   // tiny, serial
		{120, 0.05}, // below threshold
		{300, 0.04}, // parallel
		{600, 0.02}, // parallel, larger
	} {
		a := randCSR(tc.n, tc.n, tc.density, int64(tc.n))
		b := randCSR(tc.n, tc.n, tc.density, int64(tc.n+1))
		var parallel *CSR
		serial := spGEMMSerial(a, b)
		withMaxProcs(4, func() { parallel = SpGEMM(a, b) })
		if !csrBitwiseEqual(serial, parallel) {
			t.Fatalf("SpGEMM n=%d: parallel result differs from serial", tc.n)
		}
		var single *CSR
		withMaxProcs(1, func() { single = SpGEMM(a, b) })
		if !csrBitwiseEqual(serial, single) {
			t.Fatalf("SpGEMM n=%d: GOMAXPROCS=1 result differs from serial", tc.n)
		}
	}
}

// spGEMMSerial is the single-threaded Gustavson product, the reference
// for the parallel-equivalence tests.
func spGEMMSerial(a, b *CSR) *CSR {
	var out *CSR
	withMaxProcs(1, func() { out = SpGEMM(a, b) })
	return out
}

// referenceToCSR is the previous comparison-sort finalization, kept as the
// oracle for the counting-sort implementation.
func referenceToCSR(b *Builder) *CSR {
	n := len(b.v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		ix, iy := idx[x], idx[y]
		if b.ri[ix] != b.ri[iy] {
			return b.ri[ix] < b.ri[iy]
		}
		return b.ci[ix] < b.ci[iy]
	})
	out := NewCSR(b.rows, b.cols)
	prevRow, prevCol := -1, -1
	for _, k := range idx {
		r, c, v := b.ri[k], b.ci[k], b.v[k]
		if r == prevRow && c == prevCol {
			out.Val[len(out.Val)-1] += v
			continue
		}
		out.ColIdx = append(out.ColIdx, c)
		out.Val = append(out.Val, v)
		for fill := prevRow + 1; fill <= r; fill++ {
			out.RowPtr[fill] = len(out.Val) - 1
		}
		prevRow, prevCol = r, c
	}
	for fill := prevRow + 1; fill <= b.rows; fill++ {
		out.RowPtr[fill] = len(out.Val)
	}
	return compactZeros(out)
}

func TestToCSRCountingSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		b := NewBuilder(rows, cols)
		ref := NewBuilder(rows, cols)
		nEntries := rng.Intn(300)
		for e := 0; e < nEntries; e++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			v := rng.NormFloat64()
			switch rng.Intn(5) {
			case 0:
				v = 0 // exact zeros recorded
			case 1:
				// Duplicate that cancels exactly.
				b.Add(i, j, v)
				ref.Add(i, j, v)
				v = -v
			}
			b.Add(i, j, v)
			ref.Add(i, j, v)
		}
		got := b.ToCSR()
		want := referenceToCSR(ref)
		if !csrBitwiseEqual(got, want) {
			t.Fatalf("trial %d (%dx%d, %d entries): counting sort differs from reference",
				trial, rows, cols, nEntries)
		}
	}
}

func TestToCSREmptyAndEdge(t *testing.T) {
	if got := NewBuilder(3, 4).ToCSR(); got.NNZ() != 0 || got.Rows != 3 || got.Cols != 4 {
		t.Fatal("empty builder mishandled")
	}
	b := NewBuilder(1, 1)
	b.Add(0, 0, 2.5)
	b.Add(0, 0, -2.5)
	if got := b.ToCSR(); got.NNZ() != 0 {
		t.Fatal("exactly-cancelling duplicates should be dropped")
	}
}

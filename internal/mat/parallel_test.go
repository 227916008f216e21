package mat

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withMaxProcs runs fn under the given GOMAXPROCS, restoring the old
// value afterwards. The kernel layer consults GOMAXPROCS on every call,
// so this toggles the serial/parallel dispatch deterministically.
func withMaxProcs(p int, fn func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	fn()
}

func bitwiseEqual(a, b *Dense) bool {
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

func relFrobDiff(a, b *Dense) float64 {
	d := a.Clone()
	d.Sub(b)
	na := a.FrobNorm()
	if na == 0 {
		return d.FrobNorm()
	}
	return d.FrobNorm() / na
}

func TestParallelForCoversAllIndices(t *testing.T) {
	withMaxProcs(4, func() {
		for _, tc := range []struct{ n, grain int }{
			{0, 1}, {1, 1}, {7, 3}, {100, 1}, {100, 7}, {100, 100}, {100, 1000}, {1024, 16},
		} {
			var hits = make([]int32, tc.n)
			ParallelFor(tc.n, tc.grain, func(lo, hi int) {
				if lo < 0 || hi > tc.n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, tc.n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", tc.n, tc.grain, i, h)
				}
			}
		}
	})
}

// Concurrent and nested calls share the pooled jobs: every index must
// still be visited exactly once per call, and a helper that starts after
// its call returned must not touch a later call's job (-race checks it).
func TestParallelForConcurrentAndNested(t *testing.T) {
	withMaxProcs(4, func() {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 50; rep++ {
					const n, inner = 37, 9
					hits := make([]int32, n*inner)
					ParallelFor(n, 2, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							ParallelFor(inner, 1, func(jlo, jhi int) {
								for j := jlo; j < jhi; j++ {
									atomic.AddInt32(&hits[i*inner+j], 1)
								}
							})
						}
					})
					for i, h := range hits {
						if h != 1 {
							t.Errorf("index %d visited %d times", i, h)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// A parallel ParallelFor call allocates nothing in steady state: its
// counter, WaitGroup and arguments live in a pooled job. (Counted by
// hand: testing.AllocsPerRun pins GOMAXPROCS to 1, the inline path.)
func TestParallelForAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	withMaxProcs(2, func() {
		var sum atomic.Int64
		fn := func(lo, hi int) { sum.Add(int64(hi - lo)) }
		ParallelFor(64, 4, fn)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			ParallelFor(64, 4, fn)
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.Mallocs - before.Mallocs) / runs; perCall != 0 {
			t.Fatalf("ParallelFor allocates %d times per call, want 0", perCall)
		}
	})
}

func TestParallelForSingleProcRunsInline(t *testing.T) {
	withMaxProcs(1, func() {
		last := -1
		ordered := true
		ParallelFor(100, 10, func(lo, hi int) {
			if lo <= last {
				ordered = false
			}
			last = lo
		})
		if !ordered {
			t.Fatal("GOMAXPROCS=1 did not run chunks in order on the caller")
		}
	})
}

// gemmShapes straddle the serial/parallel threshold (2^16 multiply-adds)
// on both sides, plus sizes that exercise the packed-panel path, row
// remainders (non-multiples of the micro-kernel height) and views.
var gemmShapes = [][3]int{
	{5, 7, 9},      // tiny, serial
	{20, 20, 20},   // below threshold
	{41, 40, 40},   // just at/around threshold
	{43, 41, 39},   // odd sizes, remainder rows
	{64, 64, 17},   // above threshold, narrow output
	{130, 97, 61},  // above threshold, all remainders
	{260, 300, 40}, // spans multiple KC panels
}

func TestGemmParallelMatchesSerialBitwise(t *testing.T) {
	for _, s := range gemmShapes {
		a := randDense(s[0], s[1], int64(s[0]*1000+s[1]))
		b := randDense(s[1], s[2], int64(s[1]*1000+s[2]))
		var serial, parallel *Dense
		withMaxProcs(1, func() { serial = Mul(a, b) })
		withMaxProcs(4, func() { parallel = Mul(a, b) })
		if !bitwiseEqual(serial, parallel) {
			t.Fatalf("Mul %v: parallel result differs from serial", s)
		}
		want := naiveMul(a, b)
		if !parallel.Equal(want, 1e-10) {
			t.Fatalf("Mul %v: result does not match the naive reference", s)
		}
	}
}

func TestMulAddMulSubParallelMatchSerialBitwise(t *testing.T) {
	for _, s := range gemmShapes {
		a := randDense(s[0], s[1], int64(s[0]+7))
		b := randDense(s[1], s[2], int64(s[2]+11))
		base := randDense(s[0], s[2], int64(s[0]*s[2]))
		var addS, addP, subS, subP *Dense
		withMaxProcs(1, func() {
			addS = base.Clone()
			mulAdd(addS, a, b)
			subS = base.Clone()
			MulSub(subS, a, b)
		})
		withMaxProcs(4, func() {
			addP = base.Clone()
			mulAdd(addP, a, b)
			subP = base.Clone()
			MulSub(subP, a, b)
		})
		if !bitwiseEqual(addS, addP) {
			t.Fatalf("MulAdd %v: parallel differs from serial", s)
		}
		if !bitwiseEqual(subS, subP) {
			t.Fatalf("MulSub %v: parallel differs from serial", s)
		}
		// MulSub must equal base − a·b exactly as computed by MulAdd with
		// negated a (the semantics of the old clone-and-negate code).
		neg := a.Clone()
		for i := range neg.Data {
			neg.Data[i] = -neg.Data[i]
		}
		ref := base.Clone()
		mulAdd(ref, neg, b)
		if !subP.Equal(ref, 1e-12) {
			t.Fatalf("MulSub %v: alpha=-1 path deviates from negated-clone reference", s)
		}
	}
}

func TestMulTParallelMatchesSerialBitwise(t *testing.T) {
	// Shapes chosen so b.Cols straddles the column-split grain and the
	// work threshold.
	for _, s := range [][3]int{{30, 10, 20}, {100, 40, 31}, {64, 50, 32}, {200, 80, 64}, {500, 30, 90}} {
		a := randDense(s[0], s[1], int64(s[0]+13))
		b := randDense(s[0], s[2], int64(s[2]+17))
		var serial, parallel *Dense
		withMaxProcs(1, func() { serial = MulT(a, b) })
		withMaxProcs(4, func() { parallel = MulT(a, b) })
		if !bitwiseEqual(serial, parallel) {
			t.Fatalf("MulT %v: parallel result differs from serial", s)
		}
	}
}

func TestMulBTParallelMatchesSerialBitwise(t *testing.T) {
	for _, s := range [][3]int{{10, 20, 30}, {64, 64, 17}, {120, 90, 80}, {300, 40, 100}} {
		a := randDense(s[0], s[1], int64(s[0]+19))
		b := randDense(s[2], s[1], int64(s[2]+23))
		var serial, parallel *Dense
		withMaxProcs(1, func() { serial = MulBT(a, b) })
		withMaxProcs(4, func() { parallel = MulBT(a, b) })
		if !bitwiseEqual(serial, parallel) {
			t.Fatalf("MulBT %v: parallel result differs from serial", s)
		}
	}
}

// qrShapes straddle qrBlockedMinK (48): below it the unblocked
// column-at-a-time path runs; at or above it the compact-WY blocked path.
var qrShapes = [][2]int{
	{60, 40},   // k=40: unblocked
	{100, 48},  // k=48: first blocked size
	{49, 120},  // wide, k=49 blocked
	{300, 100}, // tall blocked, several panels
	{200, 250}, // wide blocked
	{513, 65},  // panel remainder (65 = 2·32 + 1)
}

func TestBlockedQRMatchesUnblocked(t *testing.T) {
	for _, s := range qrShapes {
		a := randDense(s[0], s[1], int64(s[0]*31+s[1]))
		blocked := houseQR(a)
		unblocked := houseQRUnblocked(a)
		if d := relFrobDiff(blocked.fac, unblocked.fac); d > 1e-12 {
			t.Fatalf("houseQR %v: blocked factor deviates from unblocked by %g", s, d)
		}
		for j := range blocked.tau {
			if math.Abs(blocked.tau[j]-unblocked.tau[j]) > 1e-10 {
				t.Fatalf("houseQR %v: tau[%d] deviates", s, j)
			}
		}
	}
}

func TestBlockedQRProperties(t *testing.T) {
	for _, s := range qrShapes {
		a := randDense(s[0], s[1], int64(s[0]+s[1]))
		q, r := QR(a)
		qr := Mul(q, r)
		qr.Sub(a)
		if rec := qr.FrobNorm() / a.FrobNorm(); rec > 1e-13 {
			t.Fatalf("QR %v: reconstruction error %g", s, rec)
		}
		g := MulT(q, q)
		for i := 0; i < g.Rows; i++ {
			g.Data[i*g.Stride+i] -= 1
		}
		if orth := g.MaxAbs(); orth > 1e-12 {
			t.Fatalf("QR %v: loss of orthogonality %g", s, orth)
		}
	}
}

func TestBlockedQRDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Every parallel kernel inside the blocked QR preserves the serial
	// reduction order, so the whole factorization is bitwise reproducible.
	a := randDense(300, 100, 99)
	var f1, f4 *qrFactor
	withMaxProcs(1, func() { f1 = houseQR(a) })
	withMaxProcs(4, func() { f4 = houseQR(a) })
	if !bitwiseEqual(f1.fac, f4.fac) {
		t.Fatal("houseQR result depends on GOMAXPROCS")
	}
}

func TestQRCPDeterministicAcrossGOMAXPROCS(t *testing.T) {
	a := randDense(200, 120, 5)
	var q1, r1, q4, r4 *Dense
	var p1, p4 []int
	withMaxProcs(1, func() { q1, r1, p1 = qrcp(a) })
	withMaxProcs(4, func() { q4, r4, p4 = qrcp(a) })
	for j := range p1 {
		if p1[j] != p4[j] {
			t.Fatal("QRCP pivot sequence depends on GOMAXPROCS")
		}
	}
	if !bitwiseEqual(r1, r4) || !bitwiseEqual(q1, q4) {
		t.Fatal("QRCP factors depend on GOMAXPROCS")
	}
}

func TestApplyQBlockedAgainstReflectors(t *testing.T) {
	a := randDense(260, 96, 41)
	b := randDense(260, 33, 43)
	qf := houseQR(a)
	// Reference: reflector-by-reflector application.
	ref := b.Clone()
	s := make([]float64, ref.Cols)
	for j := len(qf.tau) - 1; j >= 0; j-- {
		qf.applyReflector(ref, j, s)
	}
	got := b.Clone()
	qf.applyQ(got)
	if d := relFrobDiff(got, ref); d > 1e-12 {
		t.Fatalf("blocked applyQ deviates from reflector loop by %g", d)
	}
	refT := b.Clone()
	for j := 0; j < len(qf.tau); j++ {
		qf.applyReflector(refT, j, s)
	}
	gotT := b.Clone()
	qf.applyQT(gotT)
	if d := relFrobDiff(gotT, refT); d > 1e-12 {
		t.Fatalf("blocked applyQT deviates from reflector loop by %g", d)
	}
}

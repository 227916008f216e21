package mat

import (
	"math"
	"runtime"
	"testing"
)

// sameBits reports whether a and b have equal shapes and bitwise equal
// entries.
func sameBits(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			if math.Float64bits(ar[j]) != math.Float64bits(br[j]) {
				return false
			}
		}
	}
	return true
}

// TestQRWorkspaceMatchesQR runs one workspace over shapes that shrink and
// grow between calls, on both sides of the blocked-QR cutoff, and
// requires QR's Q and R bit for bit every time.
func TestQRWorkspaceMatchesQR(t *testing.T) {
	shapes := [][2]int{{40, 8}, {200, 8}, {12, 12}, {300, 64}, {60, 8}, {500, 50}, {9, 3}, {3, 9}, {130, 48}, {20, 5}}
	var ws QRWorkspace
	for i, s := range shapes {
		a := randDense(s[0], s[1], int64(300+i))
		// Sparse-looking inputs: zero entries and an all-zero column.
		for j := range a.Data {
			if j%3 == 0 {
				a.Data[j] = 0
			}
		}
		if s[1] > 2 {
			for r := 0; r < a.Rows; r++ {
				a.Set(r, 1, 0)
			}
		}
		wantQ, wantR := QR(a)
		f := a.Clone()
		q := ws.QR(f)
		if !sameBits(q, wantQ) {
			t.Fatalf("%d×%d: workspace Q differs from QR's", s[0], s[1])
		}
		k := min(s[0], s[1])
		for r := 0; r < k; r++ {
			for c := 0; c < s[1]; c++ {
				want := wantR.At(r, c)
				got := 0.0
				if c >= r {
					got = f.At(r, c)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d×%d: R(%d,%d) = %v, QR gives %v", s[0], s[1], r, c, got, want)
				}
			}
		}
	}
}

// mallocsPerRun counts fn's heap allocations per call by hand, at the
// current GOMAXPROCS (testing.AllocsPerRun pins GOMAXPROCS to 1, where
// every parallel kernel runs inline). The warm-up calls let every P's
// sync.Pool hold its own pooled jobs, and integer division forgives the
// rare pooled job a collection drops.
func mallocsPerRun(runs int, fn func()) uint64 {
	for i := 0; i < 20; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// A warm workspace factors a panel below the blocked-QR cutoff without
// allocating, at its largest shape and at a smaller one. The 1024×32
// panel runs at GOMAXPROCS 2, where its reflector updates cross
// qrParallelThreshold and take the row-parallel path; OrthWorkspace
// shares those reflectors and must stay allocation-free there too.
func TestQRWorkspaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var ws QRWorkspace
	var ows OrthWorkspace
	for _, c := range []struct{ m, n, procs int }{{400, 32, 1}, {150, 8, 1}, {1024, 32, 2}} {
		withMaxProcs(c.procs, func() {
			a := randDense(c.m, c.n, 77)
			f := a.Clone()
			if got := mallocsPerRun(200, func() {
				f.CopyFrom(a)
				ws.QR(f)
			}); got != 0 {
				t.Fatalf("%d×%d at GOMAXPROCS %d: warm QRWorkspace.QR allocates %v times, want 0", c.m, c.n, c.procs, got)
			}
			if got := mallocsPerRun(200, func() { ows.Orth(a) }); got != 0 {
				t.Fatalf("%d×%d at GOMAXPROCS %d: warm OrthWorkspace.Orth allocates %v times, want 0", c.m, c.n, c.procs, got)
			}
		})
	}
}

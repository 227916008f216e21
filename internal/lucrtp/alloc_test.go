package lucrtp

import (
	"runtime"
	"testing"

	"sparselr/internal/gen"
)

// solveBytes returns the heap bytes one GOMAXPROCS=1 solve allocates,
// measured on the second of two identical solves.
func solveBytes(t *testing.T, opts Options) uint64 {
	a := gen.ShapeSpectrum(gen.Circuit(600, 8, 3), 6, 0, 1, 13)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for run := 0; run < 2; run++ {
		runtime.ReadMemStats(&before)
		if _, err := Factor(a, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// An ILUT_CRTP solve keeps one per-rank iteration workspace: the dense
// panel, its QR, the permuted Q_k, the Ā₂₁ rows, the CSC copy and the
// permuted A⁽ⁱ⁾ are reused across iterations, and thresholding compacts
// the Schur complement in place. The bound sits between the bytes the
// solve allocated when every kernel built fresh copies (25.2 MB) and
// what it allocates with the workspace (8.9 MB).
func TestILUTSolveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	got := solveBytes(t, Options{BlockSize: 32, Tol: 1e-2, Threshold: AutoThreshold})
	const bound = 14 << 20
	if got > bound {
		t.Fatalf("ILUT_CRTP solve allocates %d bytes, want ≤ %d", got, bound)
	}
}

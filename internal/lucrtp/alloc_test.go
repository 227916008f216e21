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
// panel, its QR, the permuted Q_k, the Ā₂₁ rows, the CSC copy, the
// permuted A⁽ⁱ⁾, Ā₁₁, Ā₁₂, X and the Schur output are reused across
// iterations, thresholding compacts the Schur complement in place, and L
// and U are appended straight into CSR order. The bound sits between the
// bytes the solve allocated with fresh Schur outputs and entry-triple
// factors (8.9 MB) and what it allocates now (4.2 MB).
func TestILUTSolveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	got := solveBytes(t, Options{BlockSize: 32, Tol: 1e-2, Threshold: AutoThreshold})
	const bound = 6 << 20
	if got > bound {
		t.Fatalf("ILUT_CRTP solve allocates %d bytes, want ≤ %d", got, bound)
	}
}

// The unthresholded LU_CRTP solve of the same matrix fills in far more,
// so its bytes are mostly first growth of the nnz-sized workspace
// buffers and of the factors. The bound sits between the bytes the solve
// allocated with fresh Schur outputs and entry-triple factors (67.3 MB)
// and what it allocates now (30.2 MB).
func TestLUCRTPSolveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	got := solveBytes(t, Options{BlockSize: 32, Tol: 1e-2})
	const bound = 40 << 20
	if got > bound {
		t.Fatalf("LU_CRTP solve allocates %d bytes, want ≤ %d", got, bound)
	}
}

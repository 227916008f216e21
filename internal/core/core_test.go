package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/sparse"
)

func testMatrix(seed int64) *sparse.CSR {
	return gen.RandLowRank(60, 50, 30, 0.7, 4, seed)
}

func TestAllMethodsMeetTolerance(t *testing.T) {
	a := testMatrix(1)
	tol := 1e-2
	for _, m := range []Method{RandQBEI, RandUBV, LUCRTP, ILUTCRTP, TSVD, RSVDRestart, ARRF} {
		ap, err := Approximate(a, Options{Method: m, BlockSize: 8, Tol: tol, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !ap.Converged {
			t.Fatalf("%v did not converge", m)
		}
		te := ap.TrueError(a)
		if te >= 1.05*tol*ap.NormA {
			t.Fatalf("%v: true error %v above τ‖A‖ %v", m, te, tol*ap.NormA)
		}
		if ap.Rank <= 0 || ap.NNZFactors <= 0 {
			t.Fatalf("%v: degenerate telemetry %+v", m, ap)
		}
	}
}

func TestTSVDRankIsLowerBound(t *testing.T) {
	a := testMatrix(2)
	tol := 1e-2
	svd, err := Approximate(a, Options{Method: TSVD, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{RandQBEI, RandUBV, LUCRTP, ILUTCRTP} {
		ap, err := Approximate(a, Options{Method: m, BlockSize: 4, Tol: tol, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if ap.Rank < svd.Rank {
			t.Fatalf("%v rank %d below the Eckart–Young minimum %d", m, ap.Rank, svd.Rank)
		}
	}
}

// Reconstruct forms the factor table's product in A's coordinates for
// every method but ARRF, so ‖A − Reconstruct()‖_F is TrueError.
func TestReconstructMatchesTrueError(t *testing.T) {
	a := testMatrix(3)
	for m := RandQBEI; m <= ACA; m++ {
		ap, err := Approximate(a, Options{Method: m, BlockSize: 8, Tol: 1e-2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		rec := ap.Reconstruct()
		if m == ARRF {
			if rec != nil {
				t.Fatal("ARRF: Reconstruct must be nil (its product needs A)")
			}
			continue
		}
		diff := a.ToDense()
		diff.Sub(rec)
		if math.Abs(diff.FrobNorm()-ap.TrueError(a)) > 1e-9*ap.NormA {
			t.Fatalf("%v: Reconstruct inconsistent with TrueError", m)
		}
	}
}

func TestDistributedRunsFillTelemetry(t *testing.T) {
	a := testMatrix(5)
	for _, m := range []Method{RandQBEI, LUCRTP, ILUTCRTP} {
		ap, err := Approximate(a, Options{Method: m, BlockSize: 8, Tol: 1e-2, Seed: 6, Procs: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ap.VirtualTime <= 0 {
			t.Fatalf("%v: no virtual time", m)
		}
		if len(ap.KernelTimes) == 0 {
			t.Fatalf("%v: no kernel breakdown", m)
		}
		if te := ap.TrueError(a); te >= 1.05e-2*ap.NormA {
			t.Fatalf("%v: distributed true error %v", m, te)
		}
	}
}

func TestSequentialOnlyMethodsRejectProcs(t *testing.T) {
	a := testMatrix(7)
	for _, m := range []Method{TSVD, RSVDRestart, ARRF} {
		if _, err := Approximate(a, Options{Method: m, Tol: 1e-2, Procs: 4}); err == nil {
			t.Fatalf("%v should reject Procs > 1", m)
		}
	}
}

func TestDistributedRandUBV(t *testing.T) {
	// The paper names parallel RandUBV as future work; this library
	// implements it — verify the core plumbing end to end.
	a := testMatrix(21)
	ap, err := Approximate(a, Options{Method: RandUBV, BlockSize: 8, Tol: 1e-2, Seed: 22, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !ap.Converged || ap.VirtualTime <= 0 || len(ap.KernelTimes) == 0 {
		t.Fatalf("distributed RandUBV telemetry incomplete: %+v", ap)
	}
	if te := ap.TrueError(a); te >= 1.05e-2*ap.NormA {
		t.Fatalf("true error %v", te)
	}
}

func TestOptionValidation(t *testing.T) {
	a := testMatrix(8)
	if _, err := Approximate(a, Options{Method: LUCRTP}); err == nil {
		t.Fatal("expected an error without tolerance, cap or rank stop")
	}
	if _, err := Approximate(a, Options{Method: Method(99), Tol: 1e-2}); err == nil {
		t.Fatal("expected an error for an unknown method")
	}
}

func TestParseMethodAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Method
	}{
		{"RandQB_EI", RandQBEI}, {"qb", RandQBEI},
		{"RandUBV", RandUBV}, {"ubv", RandUBV},
		{"LU_CRTP", LUCRTP}, {"lu", LUCRTP},
		{"ILUT_CRTP", ILUTCRTP}, {"ilut", ILUTCRTP},
		{"TSVD", TSVD}, {"svd", TSVD},
		{"RSVD", RSVDRestart}, {"rsvd", RSVDRestart},
		{"ARRF", ARRF}, {"arrf", ARRF},
	} {
		got, err := ParseMethod(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMethod(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
	if LUCRTP.String() != "LU_CRTP" || RandQBEI.String() != "RandQB_EI" {
		t.Fatal("String names must match the paper's")
	}
}

func TestILUTFixedMuAndAggressive(t *testing.T) {
	a := gen.Circuit(150, 5, 9)
	for _, opts := range []Options{
		{Method: ILUTCRTP, BlockSize: 8, Tol: 1e-2, Mu: 1e-6},
		{Method: ILUTCRTP, BlockSize: 8, Tol: 1e-2, Aggressive: true},
	} {
		ap, err := Approximate(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if te := ap.TrueError(a); te >= 1.1e-2*ap.NormA {
			t.Fatalf("true error %v", te)
		}
	}
}

func TestMaxRankOnlyRun(t *testing.T) {
	a := testMatrix(10)
	ap, err := Approximate(a, Options{Method: RandQBEI, BlockSize: 4, MaxRank: 12, Tol: 1e-15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rank > 12 {
		t.Fatalf("rank %d above cap", ap.Rank)
	}
}

func TestFixedRankMode(t *testing.T) {
	a := testMatrix(31)
	k := 16
	svd, err := FixedRank(a, TSVD, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if svd.Rank != k {
		t.Fatalf("TSVD fixed rank %d, want %d", svd.Rank, k)
	}
	for _, m := range []Method{RandQBEI, RandUBV, LUCRTP} {
		ap, err := FixedRank(a, m, k, Options{BlockSize: 8, Seed: 32})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if ap.Rank > k {
			t.Fatalf("%v: rank %d exceeds the prescribed %d", m, ap.Rank, k)
		}
		// Eckart–Young: no method beats the TSVD error at equal rank
		// (allow slack for the block methods stopping below k).
		if ap.Rank == k && ap.TrueError(a) < svd.ErrIndicator*(1-1e-10) {
			t.Fatalf("%v: error %v below the optimal %v", m, ap.TrueError(a), svd.ErrIndicator)
		}
	}
	if _, err := FixedRank(a, RandQBEI, 0, Options{}); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
}

func TestStopAtNumericalRankOption(t *testing.T) {
	sm := gen.SJSUSuite(4, 12)[3]
	ap, err := Approximate(sm.A, Options{
		Method: LUCRTP, BlockSize: 8, Tol: 1e-9,
		MaxRank: sm.NumRank, StopAtNumericalRank: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rank > sm.NumRank {
		t.Fatalf("rank %d above numerical rank %d", ap.Rank, sm.NumRank)
	}
}

// loopMethods are the methods that run as an SPMD body on virtual ranks.
var loopMethods = []Method{RandQBEI, RandUBV, LUCRTP, ILUTCRTP}

// A sequential run is a one-rank world: Procs 0 and Procs 1 compute the
// same factors bit for bit and both report the modeled kernel times.
func TestProcsZeroIsOneRankWorld(t *testing.T) {
	for _, label := range []string{"M1", "M2", "M3"} {
		pm, err := gen.ByLabel(label, gen.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range loopMethods {
			opts := Options{Method: m, BlockSize: 16, Tol: 1e-2, Power: 1, Seed: 1}
			seq, err := Approximate(pm.A, opts)
			if err != nil {
				t.Fatalf("%s %v Procs 0: %v", label, m, err)
			}
			opts.Procs = 1
			one, err := Approximate(pm.A, opts)
			if err != nil {
				t.Fatalf("%s %v Procs 1: %v", label, m, err)
			}
			if seq.Dist == nil || len(seq.Dist.Ranks) != 1 || len(seq.KernelTimes) == 0 {
				t.Fatalf("%s %v Procs 0: no one-rank telemetry (Dist %v, %d kernels)", label, m, seq.Dist, len(seq.KernelTimes))
			}
			if seq.Rank != one.Rank || seq.Iters != one.Iters || seq.NNZFactors != one.NNZFactors ||
				!sameBits(seq.ErrIndicator, one.ErrIndicator) || !sameBits(seq.VirtualTime, one.VirtualTime) {
				t.Fatalf("%s %v: Procs 0 rank/iters/nnz/indicator/model %d/%d/%d/%v/%v, Procs 1 %d/%d/%d/%v/%v",
					label, m, seq.Rank, seq.Iters, seq.NNZFactors, seq.ErrIndicator, seq.VirtualTime,
					one.Rank, one.Iters, one.NNZFactors, one.ErrIndicator, one.VirtualTime)
			}
			if !slices.EqualFunc(seq.ErrHistory, one.ErrHistory, sameBits) {
				t.Fatalf("%s %v: ErrHistory differs between Procs 0 and 1", label, m)
			}
			if !slices.EqualFunc(seq.Reconstruct().Data, one.Reconstruct().Data, sameBits) {
				t.Fatalf("%s %v: Reconstruct differs between Procs 0 and 1", label, m)
			}
			if !maps.EqualFunc(seq.KernelTimes, one.KernelTimes, sameBits) {
				t.Fatalf("%s %v: kernel times %v at Procs 0, %v at Procs 1", label, m, seq.KernelTimes, one.KernelTimes)
			}
		}
	}
}

// At one rank a solver's own error is returned unwrapped, whether Procs
// is 0 or 1; at Procs 2 it stays a rank crash.
func TestOneRankErrorClass(t *testing.T) {
	empty := sparse.NewCSR(0, 5)
	for _, m := range loopMethods {
		for _, procs := range []int{0, 1} {
			_, err := Approximate(empty, Options{Method: m, BlockSize: 4, Tol: 1e-2, Seed: 1, Procs: procs})
			if c := ClassifyFailure(err); c != FailureOther || strings.Contains(fmt.Sprint(err), "dist: rank 0") {
				t.Fatalf("%v Procs %d on a 0×5 matrix: class %v, error %v; want %v without a rank prefix",
					m, procs, c, err, FailureOther)
			}
		}
		_, err := Approximate(empty, Options{Method: m, BlockSize: 4, Tol: 1e-2, Seed: 1, Procs: 2})
		if c := ClassifyFailure(err); c != FailureRankCrash {
			t.Fatalf("%v Procs 2 on a 0×5 matrix: class %v, error %v; want %v", m, c, err, FailureRankCrash)
		}
	}
	// An out-of-range Power panics inside the rank body at every Procs.
	_, err := Approximate(testMatrix(9), Options{Method: RandQBEI, BlockSize: 4, Tol: 1e-2, Power: 4})
	if c := ClassifyFailure(err); c != FailureRankCrash {
		t.Fatalf("RandQB_EI Power 4: class %v, error %v; want %v", c, err, FailureRankCrash)
	}
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

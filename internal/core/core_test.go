package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/mat"
	"sparselr/internal/sketch"
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
	for _, mi := range methodTable {
		if mi.Dist {
			continue
		}
		if _, err := Approximate(a, Options{Method: mi.Method, Tol: 1e-2, Procs: 4}); err == nil {
			t.Fatalf("%v should reject Procs > 1", mi.Method)
		}
	}
}

// At τ ≥ 1 the empty approximation already meets the tolerance: TSVD
// keeps no singular triplet, and both errors are ‖A‖_F.
func TestTSVDRankZero(t *testing.T) {
	a := testMatrix(12)
	ap, err := Approximate(a, Options{Method: TSVD, Tol: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rank != 0 || !ap.Converged || ap.NNZFactors != 0 {
		t.Fatalf("TSVD at τ = 2: rank %d, converged %v, %d factor entries; want 0, true, 0", ap.Rank, ap.Converged, ap.NNZFactors)
	}
	for name, e := range map[string]float64{"ErrIndicator": ap.ErrIndicator, "TrueError": ap.TrueError(a)} {
		if math.Abs(e-ap.NormA) > 1e-12*ap.NormA {
			t.Fatalf("TSVD at τ = 2: %s %v, want ‖A‖_F = %v", name, e, ap.NormA)
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

// contractViolations each break one rule of the request contract,
// starting from a valid request.
var contractViolations = []struct {
	name string
	set  func(*Options)
}{
	{"no tolerance and no cap", func(o *Options) { o.Tol = 0 }},
	{"negative tolerance", func(o *Options) { o.Tol = -0.01 }},
	{"negative tolerance with a cap", func(o *Options) { o.Tol, o.MaxRank = -0.01, 8 }},
	{"NaN tolerance", func(o *Options) { o.Tol = math.NaN() }},
	{"NaN tolerance with a cap", func(o *Options) { o.Tol, o.MaxRank = math.NaN(), 8 }},
	{"infinite tolerance", func(o *Options) { o.Tol = math.Inf(1) }},
	{"infinite tolerance with a cap", func(o *Options) { o.Tol, o.MaxRank = math.Inf(1), 8 }},
	{"-Inf tolerance with a cap", func(o *Options) { o.Tol, o.MaxRank = math.Inf(-1), 8 }},
	{"negative block size", func(o *Options) { o.BlockSize = -4 }},
	{"negative cap", func(o *Options) { o.MaxRank = -1 }},
	{"negative procs", func(o *Options) { o.Procs = -2 }},
	{"negative power", func(o *Options) { o.Power = -1 }},
	{"power 4", func(o *Options) { o.Power = 4 }},
	{"power 7", func(o *Options) { o.Power = 7 }},
	{"unknown sketch", func(o *Options) { o.Sketch = sketch.Kind(7) }},
	{"negative sketch", func(o *Options) { o.Sketch = sketch.Kind(-1) }},
	{"negative sketch nnz", func(o *Options) { o.Sketch, o.SketchNNZ = sketch.SparseSign, -1 }},
	{"sketch nnz with the Gaussian sketch", func(o *Options) { o.SketchNNZ = 4 }},
	{"sketch nnz with SRTT", func(o *Options) { o.Sketch, o.SketchNNZ = sketch.SRTT, 4 }},
}

// TestOptionValidation is the request contract's table: every rule is
// checked for all ten methods at Procs 0 and 2, and a violation fails
// in Approximate with Validate's error, as a plain FailureOther that
// no rank reported.
func TestOptionValidation(t *testing.T) {
	a := testMatrix(8)
	rejects := func(o Options, what string) {
		t.Helper()
		want := o.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted %+v", what, o)
		}
		_, err := Approximate(a, o)
		if err == nil || err.Error() != want.Error() || ClassifyFailure(err) != FailureOther ||
			strings.Contains(err.Error(), "dist: rank 0") {
			t.Fatalf("%s: Approximate returned %v (class %v), want Validate's %q as %v",
				what, err, ClassifyFailure(err), want, FailureOther)
		}
	}
	for _, mi := range methodTable {
		for _, procs := range []int{0, 2} {
			base := Options{Method: mi.Method, BlockSize: 4, Tol: 1e-2, Seed: 1, Procs: procs}
			for _, v := range contractViolations {
				o := base
				v.set(&o)
				rejects(o, fmt.Sprintf("%v Procs %d %s", mi.Method, procs, v.name))
			}
			if procs > 1 && !mi.Dist {
				rejects(base, fmt.Sprintf("%v Procs %d", mi.Method, procs))
				continue
			}
			// The boundaries of each rule are valid: zero selects the
			// default, τ = 0 with a cap is fixed-rank mode.
			for _, set := range []func(*Options){
				func(o *Options) {},
				func(o *Options) { o.Tol, o.MaxRank = 0, 8 },
				func(o *Options) { o.BlockSize = 0 },
				func(o *Options) { o.Power = 0 },
				func(o *Options) { o.Power = 3 },
				func(o *Options) { o.Sketch = sketch.SRTT },
				func(o *Options) { o.Sketch, o.SketchNNZ = sketch.SparseSign, 4 },
			} {
				o := base
				set(&o)
				if err := o.Validate(); err != nil {
					t.Fatalf("%v: Validate rejected %+v: %v", mi.Method, o, err)
				}
			}
		}
	}
	for _, m := range []Method{Method(-1), Method(99)} {
		rejects(Options{Method: m, Tol: 1e-2}, fmt.Sprint(m))
	}
}

// Validate sits on every request path, so a valid request costs no
// allocation: the method and sketch checks are range and table lookups.
func TestValidateAllocs(t *testing.T) {
	o := Options{Method: CUR, BlockSize: 8, Tol: 1e-2, Power: 3, Sketch: sketch.SparseSign, SketchNNZ: 4}
	if n := testing.AllocsPerRun(100, func() {
		if o.Validate() != nil {
			t.Fatal("valid options rejected")
		}
	}); n != 0 {
		t.Errorf("Validate: %v allocs per call, want 0", n)
	}
}

// FuzzOptions checks the contract against the solvers on testMatrix(9):
// options Validate accepts run with no panic, rank crash or deadlock (a
// numerical breakdown is allowed), and options it rejects make
// Approximate return that same error before any rank starts. Procs is
// folded into [0, 4], so no input starts more than four ranks, and the
// int8 fields keep each run small.
func FuzzOptions(f *testing.F) {
	g, ss := int8(sketch.Gaussian), int8(sketch.SparseSign)
	for m := RandQBEI; m <= ACA; m++ {
		f.Add(int8(m), int8(4), -0.01, int8(1), int8(8), int8(0), g, int8(0)) // τ < 0 with a cap
		f.Add(int8(m), int8(4), 1e-2, int8(7), int8(0), int8(0), g, int8(0))  // Power 7
		f.Add(int8(m), int8(4), 1e-2, int8(1), int8(0), int8(2), ss, int8(4))
	}
	f.Add(int8(RandQBEI), int8(4), 1e-2, int8(1), int8(0), int8(0), int8(7), int8(0)) // unknown sketch
	f.Add(int8(RandQBEI), int8(4), 1e-2, int8(1), int8(0), int8(0), g, int8(4))       // nnz with Gaussian
	f.Add(int8(LUCRTP), int8(0), 0.0, int8(0), int8(12), int8(3), g, int8(0))
	f.Add(int8(ARRF), int8(0), 1e-300, int8(0), int8(0), int8(0), g, int8(0)) // τ below roundoff
	a := testMatrix(9)
	f.Fuzz(func(t *testing.T, method, block int8, tol float64, power, maxRank, procs, kind, nnz int8) {
		o := Options{
			Method: Method(method), BlockSize: int(block), Tol: tol, Power: int(power),
			MaxRank: int(maxRank), Procs: int(uint8(procs) % 5), Seed: 1,
			Sketch: sketch.Kind(kind), SketchNNZ: int(nnz),
		}
		want := o.Validate()
		_, err := Approximate(a, o)
		if want != nil {
			if err == nil || err.Error() != want.Error() || strings.Contains(err.Error(), "dist: rank 0") {
				t.Fatalf("%+v: Approximate returned %v, want Validate's %q", o, err, want)
			}
			return
		}
		if c := ClassifyFailure(err); c != FailureNone && c != FailureBreakdown {
			t.Fatalf("%+v: valid options failed as %v: %v", o, c, err)
		}
	})
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
	fixed := func(m Method, opts Options) (*Approximation, error) {
		opts.Method, opts.MaxRank, opts.Tol = m, k, 0
		return Approximate(a, opts)
	}
	svd, err := fixed(TSVD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if svd.Rank != k {
		t.Fatalf("TSVD fixed rank %d, want %d", svd.Rank, k)
	}
	for _, m := range []Method{RandQBEI, RandUBV, LUCRTP} {
		ap, err := fixed(m, Options{BlockSize: 8, Seed: 32})
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
	if _, err := Approximate(a, Options{Method: RandQBEI}); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
}

// A sequential run of any method is a one-rank world: Procs 0 and
// Procs 1 compute the same factors bit for bit and both report the
// modeled kernel times.
func TestProcsZeroIsOneRankWorld(t *testing.T) {
	mats := map[string]*sparse.CSR{"60×50": testMatrix(1)}
	for _, label := range []string{"M1", "M2", "M3"} {
		pm, err := gen.ByLabel(label, gen.Small)
		if err != nil {
			t.Fatal(err)
		}
		mats[label] = pm.A
	}
	for _, label := range []string{"60×50", "M1", "M2", "M3"} {
		a := mats[label]
		for _, mi := range methodTable {
			m := mi.Method
			if m == TSVD && label != "60×50" {
				// Its dense Jacobi SVD takes 1.5 s on a small Table I
				// matrix, and 30 s under -race.
				continue
			}
			opts := Options{Method: m, BlockSize: 16, Tol: 1e-2, Power: 1, Seed: 1}
			seq, err := Approximate(a, opts)
			if err != nil {
				t.Fatalf("%s %v Procs 0: %v", label, m, err)
			}
			opts.Procs = 1
			one, err := Approximate(a, opts)
			if err != nil {
				t.Fatalf("%s %v Procs 1: %v", label, m, err)
			}
			for procs, ap := range []*Approximation{seq, one} {
				if ap.Dist == nil || len(ap.Dist.Ranks) != 1 || ap.VirtualTime <= 0 || len(ap.KernelTimes) == 0 {
					t.Fatalf("%s %v Procs %d: no one-rank telemetry (Dist %v, virtual time %v, %d kernels)",
						label, m, procs, ap.Dist, ap.VirtualTime, len(ap.KernelTimes))
				}
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
			if !slices.EqualFunc(product(seq), product(one), sameBits) {
				t.Fatalf("%s %v: Reconstruct differs between Procs 0 and 1", label, m)
			}
			if !maps.EqualFunc(seq.KernelTimes, one.KernelTimes, sameBits) {
				t.Fatalf("%s %v: kernel times %v at Procs 0, %v at Procs 1", label, m, seq.KernelTimes, one.KernelTimes)
			}
		}
	}
}

// At one rank a method's own error is returned unwrapped, whether Procs
// is 0 or 1; at Procs 2 it stays a rank crash for a loop solver, and the
// other methods reject Procs 2 before running.
func TestOneRankErrorClass(t *testing.T) {
	empty := sparse.NewCSR(0, 5)
	for _, mi := range methodTable {
		m := mi.Method
		for _, procs := range []int{0, 1} {
			_, err := Approximate(empty, Options{Method: m, BlockSize: 4, Tol: 1e-2, Seed: 1, Procs: procs})
			if c := ClassifyFailure(err); c != FailureOther || strings.Contains(fmt.Sprint(err), "dist: rank 0") {
				t.Fatalf("%v Procs %d on a 0×5 matrix: class %v, error %v; want %v without a rank prefix",
					m, procs, c, err, FailureOther)
			}
		}
		_, err := Approximate(empty, Options{Method: m, BlockSize: 4, Tol: 1e-2, Seed: 1, Procs: 2})
		want := FailureRankCrash
		if !mi.Dist {
			want = FailureOther
		}
		if c := ClassifyFailure(err); c != want {
			t.Fatalf("%v Procs 2 on a 0×5 matrix: class %v, error %v; want %v", m, c, err, want)
		}
	}
	// An out-of-range Power fails the request contract before any rank
	// starts.
	var err error
	for _, m := range []Method{RandQBEI, RSVDRestart} {
		_, err = Approximate(testMatrix(9), Options{Method: m, BlockSize: 4, Tol: 1e-2, Power: 4})
		if c := ClassifyFailure(err); c != FailureOther || strings.Contains(fmt.Sprint(err), "dist: rank 0") {
			t.Fatalf("%v Power 4: class %v, error %v; want %v without a rank prefix", m, c, err, FailureOther)
		}
	}
	// One nonzero column at fixed rank 2: the QB basis keeps a rounding
	// direction as its second column, B_K's second pivot is a zero column
	// of A, and the core is singular, an unwrapped breakdown.
	b := sparse.NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.Add(i, 0, 0.3+0.17*float64(i))
	}
	for _, m := range []Method{CUR, TwoSidedID} {
		_, err = Approximate(b.ToCSR(), Options{Method: m, MaxRank: 2, Seed: 1})
		if c := ClassifyFailure(err); c != FailureBreakdown || !errors.Is(err, mat.ErrSingular) ||
			strings.Contains(fmt.Sprint(err), "dist: rank 0") {
			t.Fatalf("%v on a singular skeleton: class %v, error %v; want %v without a rank prefix", m, c, err, FailureBreakdown)
		}
	}
	// A crash injected halfway through a CUR solve's modeled time.
	opts := Options{Method: CUR, BlockSize: 8, Tol: 1e-2, Seed: 1}
	clean, err := Approximate(testMatrix(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dist.DefaultConfig()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 0, At: clean.VirtualTime / 2}}}
	opts.DistConfig = &cfg
	_, err = Approximate(testMatrix(9), opts)
	if c := ClassifyFailure(err); c != FailureRankCrash || !errors.Is(err, dist.ErrInjectedCrash) {
		t.Fatalf("CUR with an injected crash: class %v, error %v; want %v", c, err, FailureRankCrash)
	}
}

// product returns Â's entries, or ARRF's Q, whose product needs A.
func product(ap *Approximation) []float64 {
	if rec := ap.Reconstruct(); rec != nil {
		return rec.Data
	}
	return ap.ARRF.Q.Data
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

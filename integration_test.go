package sparselr

// Cross-module integration tests: the full pipeline — workload generator
// → ordering → factorization → reconstruction — on every Table I matrix
// class and every method, plus end-to-end checks that cross package
// boundaries (MatrixMarket round trips feeding factorizations, the
// distributed drivers agreeing with the sequential ones on real
// workloads, and the paper's uniform termination contract).

import (
	"bytes"
	"math"
	"testing"

	"sparselr/internal/core"
	"sparselr/internal/gen"
	"sparselr/internal/lucrtp"
	"sparselr/internal/sparse"
	"sparselr/internal/tsvd"
)

func TestEveryMethodOnEveryMatrixClass(t *testing.T) {
	tol := 1e-1
	for _, pm := range gen.TableI(gen.Small) {
		for _, m := range []core.Method{core.RandQBEI, core.RandUBV, core.LUCRTP, core.ILUTCRTP} {
			ap, err := core.Approximate(pm.A, core.Options{
				Method: m, BlockSize: 8, Tol: tol, Power: 1, Seed: 9,
			})
			if err != nil {
				t.Errorf("%s/%v: %v", pm.Label, m, err)
				continue
			}
			if !ap.Converged {
				t.Errorf("%s/%v: did not converge", pm.Label, m)
				continue
			}
			if te := ap.TrueError(pm.A); te >= 1.05*tol*ap.NormA {
				t.Errorf("%s/%v: true error %v above τ‖A‖ %v", pm.Label, m, te, tol*ap.NormA)
			}
		}
	}
}

func TestUniformTerminationContract(t *testing.T) {
	// The fixed-precision contract (eq 1): the rank every method returns
	// is at least the Eckart–Young minimum and the reported indicator is
	// below τ‖A‖_F whenever Converged is set.
	a := gen.ShapeSpectrum(gen.Economic(200, 5), 6, 0, 1, 15)
	tol := 3e-2
	minRank := tsvd.MinRankCurve(a, []float64{tol})[0]
	for _, m := range []core.Method{core.RandQBEI, core.RandUBV, core.LUCRTP, core.ILUTCRTP, core.RSVDRestart} {
		ap, err := core.Approximate(a, core.Options{Method: m, BlockSize: 8, Tol: tol, Seed: 10})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !ap.Converged {
			t.Fatalf("%v did not converge", m)
		}
		if ap.ErrIndicator >= tol*ap.NormA {
			t.Fatalf("%v: indicator %v not below bound", m, ap.ErrIndicator)
		}
		if ap.Rank < minRank {
			t.Fatalf("%v: rank %d below the optimal %d", m, ap.Rank, minRank)
		}
	}
}

func TestMatrixMarketRoundTripThroughFactorization(t *testing.T) {
	// Serialize a workload, parse it back, factor both and compare: the
	// IO layer must be lossless end to end.
	orig := gen.Circuit(150, 5, 11)
	var buf bytes.Buffer
	if err := orig.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := sparse.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(orig, 0) {
		t.Fatal("round trip changed the matrix")
	}
	r1, err := lucrtp.Factor(orig, lucrtp.Options{BlockSize: 8, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lucrtp.Factor(parsed, lucrtp.Options{BlockSize: 8, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rank != r2.Rank || r1.ErrIndicator != r2.ErrIndicator {
		t.Fatal("factorizations of the round-tripped matrix differ")
	}
}

func TestDistributedAgreesWithSequentialOnWorkloads(t *testing.T) {
	for _, label := range []string{"M1", "M3"} {
		pm, err := gen.ByLabel(label, gen.Small)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []core.Method{core.RandQBEI, core.LUCRTP} {
			seq, err := core.Approximate(pm.A, core.Options{Method: m, BlockSize: 8, Tol: 1e-2, Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.Approximate(pm.A, core.Options{Method: m, BlockSize: 8, Tol: 1e-2, Seed: 12, Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			if seq.Rank != par.Rank || seq.Iters != par.Iters {
				t.Fatalf("%s/%v: seq %d/%d vs par %d/%d", label, m, seq.Rank, seq.Iters, par.Rank, par.Iters)
			}
			if d := math.Abs(seq.ErrIndicator - par.ErrIndicator); d > 1e-8*seq.NormA {
				t.Fatalf("%s/%v: indicators diverge by %v", label, m, d)
			}
		}
	}
}

func TestILUTBeatsLUOnFillHeavyClassEndToEnd(t *testing.T) {
	// The paper's headline claim, end to end on the generated M2 analog:
	// same tolerance, ILUT_CRTP no slower (virtual time) and no larger
	// factors than LU_CRTP, with both meeting the error bound.
	pm, err := gen.ByLabel("M2", gen.Small)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-3
	lu, err := core.Approximate(pm.A, core.Options{Method: core.LUCRTP, BlockSize: 8, Tol: tol, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ilut, err := core.Approximate(pm.A, core.Options{Method: core.ILUTCRTP, BlockSize: 8, Tol: tol, Procs: 4, EstIters: lu.Iters})
	if err != nil {
		t.Fatal(err)
	}
	if !lu.Converged || !ilut.Converged {
		t.Fatal("both must converge")
	}
	if ilut.VirtualTime > lu.VirtualTime {
		t.Fatalf("ILUT modeled time %v above LU %v on the fill-heavy class", ilut.VirtualTime, lu.VirtualTime)
	}
	if ilut.NNZFactors > lu.NNZFactors {
		t.Fatalf("ILUT factors %d larger than LU %d", ilut.NNZFactors, lu.NNZFactors)
	}
	if te := ilut.TrueError(pm.A); te >= 1.05*tol*ilut.NormA {
		t.Fatalf("ILUT true error %v above bound", te)
	}
}

func TestSJSUPipelineStopsAtNumericalRank(t *testing.T) {
	// The §VI-A protocol end to end: run the suite members to their
	// numerical rank; the residual there must be at the noise floor.
	for _, sm := range gen.SJSUSuite(6, 13) {
		res, err := lucrtp.Factor(sm.A, lucrtp.Options{
			BlockSize: 8, Tol: 1e-12, MaxRank: sm.NumRank, StopAtNumericalRank: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", sm.Name, err)
		}
		if res.Rank > sm.NumRank {
			t.Fatalf("%s: rank %d above numerical rank %d", sm.Name, res.Rank, sm.NumRank)
		}
		// At (or near) the numerical rank the indicator must be tiny
		// relative to ‖A‖ (the suite floors its spectra at ~1e-6).
		if res.ErrIndicator > 1e-4*res.NormA {
			t.Fatalf("%s: indicator %v too large at the numerical rank", sm.Name, res.ErrIndicator)
		}
	}
}

func TestQuickstartScenarioSmoke(t *testing.T) {
	// The quickstart example's core flow as a test: all methods on one
	// decaying matrix, ranks within 2× of the TSVD optimum.
	a := gen.RandLowRank(120, 120, 30, 0.8, 5, 42)
	tol := 1e-2
	svd, err := core.Approximate(a, core.Options{Method: core.TSVD, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Method{core.RandQBEI, core.RandUBV, core.LUCRTP, core.ILUTCRTP} {
		ap, err := core.Approximate(a, core.Options{Method: m, BlockSize: 8, Tol: tol, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		if ap.Rank > 2*svd.Rank+16 {
			t.Fatalf("%v rank %d far above optimal %d", m, ap.Rank, svd.Rank)
		}
	}
}

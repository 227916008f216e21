package cur

import (
	"testing"

	"sparselr/internal/randqb"
	"sparselr/internal/sparse"
)

// The benchmark fixture mirrors the fast-decay Table I regime where the
// skeleton family's sparse outer factors pay off: a tall sparse matrix
// whose spectrum dies quickly, factored to the fixed-precision target.
const benchTol = 1e-2

func benchA() *sparse.CSR { return decayMatrix(900, 700, 80, 0.8, 3) }

// benchFactorBytes is the serving cost model for a skeleton result:
// 12 B per sparse nonzero plus row pointers, 8 B per dense core entry,
// 8 B per skeleton index.
func benchFactorBytes(r *Result) float64 {
	b := int64(r.C.NNZ()+r.R.NNZ())*12 +
		int64(r.C.Rows+r.R.Rows)*4 +
		int64(r.U.Rows*r.U.Cols)*8 +
		int64(len(r.RowIdx)+len(r.ColIdx))*8
	return float64(b)
}

// benchVariant runs at Power 1, as BenchmarkCURBaselineQB does, so the
// CUR/ID2-over-QB wall ratio is what selection costs on top of the same
// RandQB_EI sweep.
func benchVariant(b *testing.B, v Variant) {
	a := benchA()
	var last *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := factor(a, v, randqb.Options{BlockSize: 16, Tol: benchTol, Power: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if !last.Converged {
		b.Fatalf("%v did not reach tau=%g on the benchmark fixture", v, benchTol)
	}
	b.ReportMetric(benchFactorBytes(last), "factorB/op")
}

func BenchmarkCURFactorCUR(b *testing.B) { benchVariant(b, CUR) }
func BenchmarkCURFactorID2(b *testing.B) { benchVariant(b, ID2) }
func BenchmarkCURFactorACA(b *testing.B) { benchVariant(b, ACA) }

// BenchmarkCURBaselineQB runs RandQB_EI on the same fixture and target
// so verify.sh can compare wall clock and resident factor bytes (dense
// Q and B panels) against the skeleton methods.
func BenchmarkCURBaselineQB(b *testing.B) {
	a := benchA()
	var last *randqb.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := randqb.Factor(a, randqb.Options{BlockSize: 16, Tol: benchTol, Power: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if !last.Converged {
		b.Fatalf("RandQB_EI did not reach tau=%g on the benchmark fixture", benchTol)
	}
	dense := (last.Q.Rows*last.Q.Cols + last.B.Rows*last.B.Cols) * 8
	b.ReportMetric(float64(dense), "factorB/op")
}

package sparselr

// One benchmark per table and figure of the paper (§VI), plus
// micro-benchmarks of the dominant kernels. The table/figure benchmarks
// drive the same runners as cmd/experiments at the Small scale with
// reduced sweeps so `go test -bench=.` completes in minutes; run
// `cmd/experiments -scale medium` for the full reproduction.

import (
	"io"
	"runtime"
	"testing"

	"sparselr/internal/core"
	"sparselr/internal/experiments"
	"sparselr/internal/gen"
	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/randqb"
	"sparselr/internal/randubv"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

func benchCfg(matrices ...string) experiments.Config {
	return experiments.Config{
		Scale: gen.Small, Out: io.Discard, Seed: 1,
		Matrices: matrices, MaxProcs: 8, SuiteSize: 24,
	}
}

// --- Table I ---

func BenchmarkTable1Matrices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable1(benchCfg())
		if len(rows) != 6 {
			b.Fatal("bad inventory")
		}
	}
}

// --- Table II: accuracy vs cost (one benchmark per matrix class) ---

func benchTable2(b *testing.B, label string) {
	cfg := benchCfg(label)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable2(cfg)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable2AccuracyVsCostM1(b *testing.B) { benchTable2(b, "M1") }
func BenchmarkTable2AccuracyVsCostM2(b *testing.B) { benchTable2(b, "M2") }
func BenchmarkTable2AccuracyVsCostM3(b *testing.B) { benchTable2(b, "M3") }
func BenchmarkTable2AccuracyVsCostM4(b *testing.B) { benchTable2(b, "M4") }
func BenchmarkTable2AccuracyVsCostM5(b *testing.B) { benchTable2(b, "M5") }
func BenchmarkTable2AccuracyVsCostM6(b *testing.B) { benchTable2(b, "M6") }

// --- Fig 1 ---

func BenchmarkFig1LeftSJSUSuite(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		sum := experiments.RunFig1Left(cfg)
		if sum.ErrViolations != 0 {
			b.Fatal("error violation in the suite run")
		}
	}
}

func BenchmarkFig1RightFillProgression(b *testing.B) {
	cfg := benchCfg("M2", "M3")
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig1Right(cfg); len(s) == 0 {
			b.Fatal("no series")
		}
	}
}

// --- Figs 2–3 ---

func BenchmarkFig2RuntimeVsQuality(b *testing.B) {
	cfg := benchCfg("M3")
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig2(cfg); len(s) == 0 {
			b.Fatal("no sweep")
		}
	}
}

func BenchmarkFig3EconomicSweep(b *testing.B) {
	cfg := benchCfg("M5")
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig3(cfg); len(s) == 0 {
			b.Fatal("no sweep")
		}
	}
}

// --- Fig 4 ---

func BenchmarkFig4StrongScaling(b *testing.B) {
	cfg := benchCfg("M2")
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig4(cfg); len(s) == 0 {
			b.Fatal("no series")
		}
	}
}

// --- Figs 5–6 ---

func BenchmarkFig5KernelBreakdownLU(b *testing.B) {
	cfg := benchCfg("M2")
	cfg.MaxProcs = 4
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig5(cfg); len(s) == 0 {
			b.Fatal("no breakdowns")
		}
	}
}

func BenchmarkFig6KernelBreakdownQB(b *testing.B) {
	cfg := benchCfg("M2")
	cfg.MaxProcs = 4
	for i := 0; i < b.N; i++ {
		if s := experiments.RunFig6(cfg); len(s) == 0 {
			b.Fatal("no breakdowns")
		}
	}
}

// --- Method-level benchmarks (the per-method cost behind Table II) ---

func benchMatrix() *sparse.CSR {
	return gen.ShapeSpectrum(gen.Circuit(400, 5, 3), 6, 0, 1, 13)
}

func BenchmarkMethodRandQBEI(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randqb.Factor(a, randqb.Options{BlockSize: 16, Tol: 1e-2, Power: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodRandUBV(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randubv.Factor(a, randubv.Options{BlockSize: 16, Tol: 1e-2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodLUCRTP(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lucrtp.Factor(a, lucrtp.Options{BlockSize: 16, Tol: 1e-2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodILUTCRTP(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lucrtp.Factor(a, lucrtp.Options{BlockSize: 16, Tol: 1e-2, Threshold: lucrtp.AutoThreshold, EstIters: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodRSVDRestart(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(a, core.Options{Method: core.RSVDRestart, BlockSize: 8, Tol: 1e-2, Power: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodARRF(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(a, core.Options{Method: core.ARRF, Tol: 1e-1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodDistRandUBV4Ranks(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(a, core.Options{Method: core.RandUBV, BlockSize: 16, Tol: 1e-2, Seed: 1, Procs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMethodDistLUCRTP8Ranks(b *testing.B) {
	a := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Approximate(a, core.Options{Method: core.LUCRTP, BlockSize: 16, Tol: 1e-2, Procs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel micro-benchmarks ---
//
// The Kernel* benchmarks below are the perf-trajectory probes emitted to
// BENCH_kernels.json by verify.sh. Pairs with a Serial suffix pin
// GOMAXPROCS=1 inside the timed loop so the parallel speedup of the
// kernel layer can be read off directly on multi-core hardware.

func benchGEMMOperands(n int) (*mat.Dense, *mat.Dense) {
	a := mat.NewDense(n, n)
	c := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = float64((i*2654435761)%1000)/500 - 1
		c.Data[i] = float64((i*40503)%1000)/500 - 1
	}
	return a, c
}

func BenchmarkKernelGEMM512(b *testing.B) {
	x, y := benchGEMMOperands(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Mul(x, y)
	}
}

func BenchmarkKernelGEMM512Serial(b *testing.B) {
	x, y := benchGEMMOperands(512)
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Mul(x, y)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelQRTall2048x256(b *testing.B) {
	d := mat.NewDense(2048, 256)
	for i := range d.Data {
		d.Data[i] = float64((i*2654435761)%1000)/500 - 1
	}
	f := d.Clone()
	var ws mat.QRWorkspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CopyFrom(d)
		ws.FactorR(f)
	}
}

func BenchmarkKernelSpMMLarge(b *testing.B) {
	a := gen.Circuit(20000, 8, 1)
	x := mat.NewDense(20000, 64)
	for i := range x.Data {
		x.Data[i] = float64(i%17) - 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDense(x)
	}
}

func BenchmarkKernelSpMMLargeSerial(b *testing.B) {
	a := gen.Circuit(20000, 8, 1)
	x := mat.NewDense(20000, 64)
	for i := range x.Data {
		x.Data[i] = float64(i%17) - 8
	}
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDense(x)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelSpMMT(b *testing.B) {
	a := gen.Circuit(20000, 8, 2)
	x := mat.NewDense(20000, 64)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulTDense(x)
	}
}

func BenchmarkKernelSpMMTSerial(b *testing.B) {
	a := gen.Circuit(20000, 8, 2)
	x := mat.NewDense(20000, 64)
	for i := range x.Data {
		x.Data[i] = float64(i%13) - 6
	}
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulTDense(x)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

// KernelSketchApply times the fused SparseSign apply A·Ω — the hot path
// of every default solve — as one CSR traversal into a preallocated
// destination (steady-state shape: no allocation, no separate zero pass).
func BenchmarkKernelSketchApply(b *testing.B) {
	a := gen.Circuit(20000, 8, 3)
	blk := sketch.New(sketch.SparseSign, a.Cols, 1, 0).Next(64)
	dst := mat.NewDense(a.Rows, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.MulCSRInto(dst, a)
	}
}

func BenchmarkKernelSketchApplySerial(b *testing.B) {
	a := gen.Circuit(20000, 8, 3)
	blk := sketch.New(sketch.SparseSign, a.Cols, 1, 0).Next(64)
	dst := mat.NewDense(a.Rows, 64)
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.MulCSRInto(dst, a)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelSpGEMMLarge(b *testing.B) {
	a := gen.Circuit(4000, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SpGEMM(a, a)
	}
}

func BenchmarkKernelSpMM(b *testing.B) {
	a := gen.Circuit(2000, 6, 1)
	x := mat.NewDense(2000, 32)
	for i := range x.Data {
		x.Data[i] = float64(i%17) - 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDense(x)
	}
}

func BenchmarkKernelSpGEMM(b *testing.B) {
	a := gen.Circuit(1200, 6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SpGEMM(a, a)
	}
}

// --- Solver-level end-to-end benchmarks ---
//
// KernelSolve* time whole factorizations on a Table I-class power-law
// matrix (circuit topology + shaped spectrum), so the sparse-kernel
// speedups are gated on what users feel, not just micro-kernels. The
// Serial twins pin GOMAXPROCS=1 for verify.sh speedup ratios.

func benchSolveMatrix() *sparse.CSR {
	return gen.ShapeSpectrum(gen.Circuit(1200, 8, 3), 6, 0, 1, 13)
}

func BenchmarkKernelSolveRandQBEI(b *testing.B) {
	a := benchSolveMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randqb.Factor(a, randqb.Options{BlockSize: 32, Tol: 1e-2, Power: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSolveRandQBEISerial(b *testing.B) {
	a := benchSolveMatrix()
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randqb.Factor(a, randqb.Options{BlockSize: 32, Tol: 1e-2, Power: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelSolveRandUBV(b *testing.B) {
	a := benchSolveMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randubv.Factor(a, randubv.Options{BlockSize: 32, Tol: 1e-2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSolveRandUBVSerial(b *testing.B) {
	a := benchSolveMatrix()
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := randubv.Factor(a, randubv.Options{BlockSize: 32, Tol: 1e-2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelSolveLUCRTP(b *testing.B) {
	a := benchSolveMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lucrtp.Factor(a, lucrtp.Options{BlockSize: 32, Tol: 1e-2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSolveLUCRTPSerial(b *testing.B) {
	a := benchSolveMatrix()
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lucrtp.Factor(a, lucrtp.Options{BlockSize: 32, Tol: 1e-2}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

// BenchmarkKernelSolveILUTCRTPSerial is KernelSolveLUCRTPSerial with
// eq-(24) thresholding, so verify.sh gates ILUT_CRTP's bytes/op too.
func BenchmarkKernelSolveILUTCRTPSerial(b *testing.B) {
	a := benchSolveMatrix()
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lucrtp.Factor(a, lucrtp.Options{BlockSize: 32, Tol: 1e-2, Threshold: lucrtp.AutoThreshold}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

func BenchmarkKernelQRCP(b *testing.B) {
	d := mat.NewDense(800, 64)
	for i := range d.Data {
		d.Data[i] = float64((i*2654435761)%1000)/500 - 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.QRCPSelect(d)
	}
}

func BenchmarkKernelQRTournament(b *testing.B) {
	a := gen.Circuit(1500, 6, 4).ToCSC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qrtp.SelectColumns(a, 32, qrtp.Binary)
	}
}

// BenchmarkKernelQRTournamentSerial pins GOMAXPROCS=1, so its bytes/op,
// which verify.sh gates, do not depend on the host's CPU count.
func BenchmarkKernelQRTournamentSerial(b *testing.B) {
	a := gen.Circuit(1500, 6, 4).ToCSC()
	old := runtime.GOMAXPROCS(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qrtp.SelectColumns(a, 32, qrtp.Binary)
	}
	b.StopTimer()
	runtime.GOMAXPROCS(old)
}

// BenchmarkKernelCOLAMDOrdering times the COLAMD + etree-postorder
// preprocessing. The ordering is serial, so its bytes/op, which verify.sh
// gates, repeat on any host.
func BenchmarkKernelCOLAMDOrdering(b *testing.B) {
	a := gen.Circuit(1500, 6, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOrderingSink = len(ordering.FillReducingOrder(a))
	}
}

var benchOrderingSink int

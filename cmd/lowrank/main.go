// Command lowrank computes a fixed-precision low-rank approximation of a
// sparse matrix with any of the methods from the paper and reports rank,
// iterations, error, factor nonzeros and the modeled parallel runtime
// with its per-kernel breakdown (a run at -np 1 is a one-rank world).
//
// The input is either a Table I analog (-matrix M1..M6) or a MatrixMarket
// file (-matrix path/to/file.mtx).
//
// Examples:
//
//	lowrank -matrix M2 -method ILUT_CRTP -tol 1e-3 -k 16
//	lowrank -matrix M5 -scale medium -method RandQB_EI -power 1 -np 8
//	lowrank -matrix data/my.mtx -method LU_CRTP -tol 1e-2
//	lowrank -matrix M3 -method cur -tol 1e-2
//	lowrank -matrix M2 -np 8 -breakdown -trace run.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

func main() {
	var (
		matrix  = flag.String("matrix", "M1", "M1..M6 (Table I analog) or a MatrixMarket file path")
		scale   = flag.String("scale", "small", "workload scale for generated matrices: small|medium|large")
		method  = flag.String("method", "LU_CRTP", "approximation method: "+core.MethodUsage())
		k       = flag.Int("k", 16, "block size")
		tol     = flag.Float64("tol", 1e-2, "tolerance τ of the fixed-precision problem")
		power   = flag.Int("power", 1, "power parameter p (0..3) of RandQB_EI, RSVD and the RandQB_EI basis CUR and ID2 select from")
		np      = flag.Int("np", 1, "virtual ranks (>1 runs the distributed implementation)")
		seed    = flag.Int64("seed", 1, "PRNG seed")
		maxRank = flag.Int("maxrank", 0, "rank cap (0 = min(m,n))")
		verify  = flag.Bool("verify", true, "evaluate the exact error ‖A−Â‖_F as a cross-check")
		brk     = flag.Bool("breakdown", false, "trace the run and print per-rank time splits, collective histograms and the critical path")
		traceF  = flag.String("trace", "", "write the run's Chrome trace_event JSON to this file (implies tracing)")
		sketchK = flag.String("sketch", "gaussian", "sketching operator for the randomized methods: gaussian|sparsesign|srtt")
		sketchN = flag.Int("sketchnnz", 0, "sparsesign nonzeros per Ω row (0 = default)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	m, sketchKind, err := validateFlags(flagValues{
		matrix: *matrix, scale: *scale, method: *method, k: *k, tol: *tol,
		power: *power, np: *np, maxRank: *maxRank, sketch: *sketchK, sketchNNZ: *sketchN,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank:", err)
		fmt.Fprintln(os.Stderr, "run 'lowrank -h' for usage")
		os.Exit(2)
	}
	defer writeMemProfile(*memProf)
	if stop := startCPUProfile(*cpuProf); stop != nil {
		defer stop()
	}

	a, name, err := loadMatrix(*matrix, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank:", err)
		os.Exit(1)
	}
	r, c := a.Dims()
	fmt.Printf("matrix %s: %d×%d, nnz=%d, density=%.4g\n", name, r, c, a.NNZ(), a.Density())

	opts := core.Options{
		Method: m, BlockSize: *k, Tol: *tol, Power: *power,
		Seed: *seed, Procs: *np, MaxRank: *maxRank,
		Sketch: sketchKind, SketchNNZ: *sketchN,
	}
	var tr *dist.Trace
	if *brk || *traceF != "" {
		tr = dist.NewTrace()
		dcfg := dist.DefaultConfig()
		dcfg.Tracer = tr
		opts.DistConfig = &dcfg
	}
	ap, err := core.Approximate(a, opts)
	if err != nil {
		exitOnRunError(err)
	}
	fmt.Printf("method        %s\n", ap.Method)
	fmt.Printf("converged     %v\n", ap.Converged)
	fmt.Printf("rank K        %d\n", ap.Rank)
	fmt.Printf("iterations    %d\n", ap.Iters)
	fmt.Printf("indicator     %.6g  (bound τ‖A‖_F = %.6g)\n", ap.ErrIndicator, *tol*ap.NormA)
	fmt.Printf("factor nnz    %d\n", ap.NNZFactors)
	fmt.Printf("wall time     %v\n", ap.WallTime)
	fmt.Printf("modeled time  %.6g s on %d ranks (comm %.3g s)\n", ap.VirtualTime, len(ap.Dist.Ranks), ap.CommTime)
	names := make([]string, 0, len(ap.KernelTimes))
	for n := range ap.KernelTimes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  kernel %-20s %.6g s\n", n, ap.KernelTimes[n])
	}
	if *brk {
		printDistBreakdown(ap.Dist, tr)
	}
	if *traceF != "" {
		if err := writeTrace(*traceF, tr); err != nil {
			fmt.Fprintln(os.Stderr, "lowrank: trace export:", err)
			os.Exit(1)
		}
		fmt.Printf("trace         %s (%d events; open in chrome://tracing or ui.perfetto.dev)\n", *traceF, tr.Len())
	}
	if *verify {
		te := ap.TrueError(a)
		fmt.Printf("true error    %.6g  (%.4g × τ‖A‖_F)\n", te, te/(*tol*ap.NormA))
	}
}

// flagValues carries the parsed flags into validateFlags.
type flagValues struct {
	matrix, scale, method, sketch string
	k, power, np, maxRank         int
	sketchNNZ                     int
	tol                           float64
}

// validateFlags rejects inconsistent flag combinations up front — a
// bad tolerance, an unknown sketch, -sketchnnz without the sparsesign
// sketch, a distributed run of a method with one-rank bodies only — so
// the run fails with a usage message instead of a late panic or a
// silent fallback. It returns the resolved method and sketch kind.
func validateFlags(f flagValues) (core.Method, sketch.Kind, error) {
	m, err := core.ParseMethod(f.method)
	if err != nil {
		return 0, 0, err
	}
	kind, err := sketch.ParseKind(f.sketch)
	if err != nil {
		return 0, 0, err
	}
	if gen.IsLabel(f.matrix) {
		if _, err := gen.ParseScale(f.scale); err != nil {
			return 0, 0, err
		}
	}
	if f.k <= 0 {
		return 0, 0, fmt.Errorf("block size -k must be positive, got %d", f.k)
	}
	if f.tol < 0 {
		return 0, 0, fmt.Errorf("tolerance -tol must be nonnegative, got %g", f.tol)
	}
	if f.tol == 0 && f.maxRank <= 0 {
		return 0, 0, fmt.Errorf("need -tol > 0 or -maxrank > 0 (a zero tolerance with no rank cap never terminates)")
	}
	if f.maxRank < 0 {
		return 0, 0, fmt.Errorf("-maxrank must be nonnegative, got %d", f.maxRank)
	}
	if f.power < 0 || f.power > 3 {
		return 0, 0, fmt.Errorf("-power must be in [0,3], got %d", f.power)
	}
	if f.np < 0 {
		return 0, 0, fmt.Errorf("-np must be nonnegative, got %d", f.np)
	}
	if f.np > 1 && !m.DistCapable() {
		return 0, 0, fmt.Errorf("%v has no distributed implementation; use -np 1", m)
	}
	if f.sketchNNZ < 0 {
		return 0, 0, fmt.Errorf("-sketchnnz must be nonnegative, got %d", f.sketchNNZ)
	}
	if f.sketchNNZ > 0 && kind != sketch.SparseSign {
		return 0, 0, fmt.Errorf("-sketchnnz only applies to -sketch sparsesign, got -sketch %v", kind)
	}
	return m, kind, nil
}

// startCPUProfile begins CPU profiling into path (empty = off) and
// returns the stop function, or nil.
func startCPUProfile(path string) func() {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank: cpuprofile:", err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "lowrank: cpuprofile:", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps a GC-settled heap profile to path (empty = off).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "lowrank: memprofile:", err)
	}
}

// exitOnRunError reports a failed approximation with a clear message and
// a distinct exit status per failure class. Never a raw panic trace.
func exitOnRunError(err error) {
	msg, code := classifyRunError(err)
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}

// classifyRunError maps a failed run onto (message, exit code): 2 for a
// numerical breakdown (ErrBreakdown — retry with a smaller block size or
// a looser τ), 3 for a structured
// distributed-runtime failure (rank crash, deadlock, poisoned
// collective), 1 otherwise.
func classifyRunError(err error) (string, int) {
	class := core.ClassifyFailure(err)
	switch class {
	case core.FailureBreakdown:
		return fmt.Sprintf("lowrank: numerical breakdown: %v\nlowrank: try a smaller -k or a looser -tol", err), class.ExitCode()
	case core.FailureRankCrash:
		var re *dist.RankError
		errors.As(err, &re)
		return fmt.Sprintf("lowrank: distributed run failed on rank %d at t=%.6gs (%s): %v",
			re.Rank, re.VirtualTime, re.Phase, re.Err), class.ExitCode()
	case core.FailureDeadlock:
		return fmt.Sprintf("lowrank: distributed run deadlocked:\n%v", err), class.ExitCode()
	default:
		return fmt.Sprintf("lowrank: %v", err), class.ExitCode()
	}
}

// printDistBreakdown renders the per-rank time accounting, the
// per-collective-kind histograms and the trace-derived critical-path
// report of a distributed run.
func printDistBreakdown(res *dist.Result, tr *dist.Trace) {
	fmt.Println("per-rank virtual-time breakdown:")
	fmt.Printf("  %-5s %12s %12s %12s %12s %12s %8s %10s %8s %10s\n",
		"rank", "total", "compute", "latency", "bandwidth", "wait", "msgs>", "bytes>", "msgs<", "bytes<")
	for _, s := range res.Ranks {
		fmt.Printf("  %-5d %12.6g %12.6g %12.6g %12.6g %12.6g %8d %10d %8d %10d\n",
			s.Rank, s.Time, s.ComputeTime, s.LatencyTime, s.BandwidthTime, s.WaitTime,
			s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv)
	}
	if names := res.CollectiveNames(); len(names) > 0 {
		fmt.Println("collective histogram (summed over ranks):")
		fmt.Printf("  %-12s %8s %8s %12s %12s\n", "kind", "calls", "msgs", "bytes", "time")
		for _, name := range names {
			var agg dist.CollectiveStats
			for _, s := range res.Ranks {
				cs := s.Collectives[name]
				agg.Calls += cs.Calls
				agg.Msgs += cs.Msgs
				agg.Bytes += cs.Bytes
				agg.Time += cs.Time
			}
			fmt.Printf("  %-12s %8d %8d %12d %12.6g\n", name, agg.Calls, agg.Msgs, agg.Bytes, agg.Time)
		}
	}
	if tr != nil {
		fmt.Println(tr.CriticalPath().Report())
	}
}

// writeTrace exports the recorded events as Chrome trace_event JSON.
func writeTrace(path string, tr *dist.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadMatrix(spec, scale string) (*sparse.CSR, string, error) {
	if strings.HasPrefix(spec, "M") && len(spec) == 2 {
		s, err := parseScale(scale)
		if err != nil {
			return nil, "", err
		}
		pm, err := gen.ByLabel(spec, s)
		if err != nil {
			return nil, "", err
		}
		return pm.A, fmt.Sprintf("%s (%s analog)", spec, pm.Name), nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return nil, "", err
	}
	return a, spec, nil
}

func parseScale(s string) (gen.Scale, error) { return gen.ParseScale(s) }

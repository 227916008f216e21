package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sparselr/internal/arrf"
	"sparselr/internal/cur"
	"sparselr/internal/dist"
	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/randubv"
	"sparselr/internal/rsvd"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
	"sparselr/internal/tsvd"
)

// Method selects the approximation algorithm.
type Method int

const (
	// RandQBEI is the randomized QB factorization with error indicator
	// (Algorithm 1).
	RandQBEI Method = iota
	// RandUBV is the block Lanczos bidiagonalization comparator (§VI-B).
	RandUBV
	// LUCRTP is the deterministic truncated LU with column/row
	// tournament pivoting (Algorithm 2).
	LUCRTP
	// ILUTCRTP is LU_CRTP with Schur-complement thresholding
	// (Algorithm 3).
	ILUTCRTP
	// TSVD is the Eckart–Young-optimal baseline (accuracy yardstick
	// only; its cost is excluded from the paper's runtime comparisons).
	TSVD
	// RSVDRestart is the restarted randomized SVD of the related work
	// (§I-A): recompute at doubled rank until the tolerance holds.
	RSVDRestart
	// ARRF is Halko's Adaptive Randomized Range Finder (Alg 4.2), the
	// vector-at-a-time fixed-precision progenitor of RandQB_EI.
	ARRF
	// CUR is the randomized CUR decomposition: QRCP skeleton selection
	// from RandQB_EI's basis (columns from B_K, rows from Q_Kᵀ) with the
	// least-squares core U = C⁺AR⁺ (internal/cur). Its C and R factors
	// are actual columns/rows of A.
	CUR
	// TwoSidedID is the two-sided interpolative decomposition ("ID2"):
	// CUR's column selection, a second QRCP pass on the selected columns
	// for the rows, and the skeleton-inverse core A(I,J)⁻¹.
	TwoSidedID
	// ACA is adaptive cross approximation with partial pivoting: a
	// sketch-free skeleton method walking CSR residual rows and columns.
	ACA
)

// String, ParseMethod, DistCapable and MethodUsage derive from the
// method registry in registry.go.

// Options configures a run. Zero values give sensible defaults
// (BlockSize 8, one rank).
type Options struct {
	Method    Method
	BlockSize int     // k
	Tol       float64 // τ
	MaxRank   int     // cap on K (0 = min(m,n))

	// Randomized-method knobs. Power is the power parameter p ∈ [0,3]
	// of every RandQB_EI sweep, including the basis CUR and ID2 select
	// their skeletons from and each of RSVD's restart attempts. RandQB_EI,
	// and so RSVD, rejects a Power outside [0,3] by panicking inside its
	// rank body, which Approximate returns as a *dist.RankError at every
	// Procs.
	Power int
	Seed  int64 // PRNG seed
	// Sketch selects the sketching operator of the randomized methods
	// (RandQB_EI, RandUBV, RSVD, ARRF, CUR, ID2); the default Gaussian
	// reproduces historical results bit-for-bit. SketchNNZ sets the
	// per-row nonzero count of the SparseSign sketch (0 →
	// sketch.DefaultSparseNNZ).
	Sketch    sketch.Kind
	SketchNNZ int

	// Deterministic-method knobs. ILUT_CRTP always derives μ from
	// eq (24); the fixed and aggressive thresholds are lucrtp options.
	EstIters int // u of eq (24) for ILUT_CRTP (0 → 10)
	Reorder  lucrtp.ReorderMode

	// Procs is the number of virtual ranks the method's body runs on.
	// Procs ≤ 1 is a one-rank world: the sequential run of any method,
	// which still reports the modeled single-rank time, the baseline of
	// the scaling curves. Only the loop solvers (RandQB_EI, LU_CRTP,
	// ILUT_CRTP, and — as this library's implementation of the paper's
	// stated future work — RandUBV) are SPMD bodies that accept
	// Procs > 1; the other six methods reject it.
	Procs      int
	DistConfig *dist.Config // nil → dist.DefaultConfig()

	// Checkpointing for the loop solvers (RandQBEI, RandUBV, LUCRTP and
	// ILUTCRTP, at any Procs): when CheckpointEvery > 0 and
	// CheckpointStore is non-nil, each rank saves its loop state every
	// CheckpointEvery iterations, and a rerun with the same Procs against
	// a store holding a complete snapshot resumes from it to a
	// bit-identical result.
	CheckpointEvery int
	CheckpointStore *dist.CheckpointStore
}

// Approximation is the uniform result of a run. Exactly one of the
// seven result fields LU, QB, UBV, SVD, RS, ARRF and CUR is non-nil,
// depending on the method; Factors lists its factors.
type Approximation struct {
	Method Method

	Rank  int
	Iters int
	NormA float64

	ErrIndicator float64
	Converged    bool
	ErrHistory   []float64

	// NNZFactors sums Factor.Entries over Factors: the nonzeros of the
	// sparse factors (L/U, C/R) plus the element counts of the dense ones.
	NNZFactors int

	WallTime time.Duration
	// Modeled-time telemetry of every method at every Procs: the
	// slowest rank's virtual time, its communication share, and the
	// per-kernel compute time (max over ranks) under the labels of
	// DESIGN.md §4c.
	VirtualTime float64
	CommTime    float64
	KernelTimes map[string]float64
	// Dist holds the full per-rank virtual-time statistics of the run,
	// one rank for a sequential run; it is never nil. To additionally
	// record an event trace, attach a dist.Tracer (e.g. dist.NewTrace())
	// to Options.DistConfig.Tracer before calling Approximate.
	Dist *dist.Result

	LU   *lucrtp.Result
	QB   *randqb.Result
	UBV  *randubv.Result
	SVD  *tsvd.Result
	RS   *rsvd.Result
	ARRF *arrf.Result
	// CUR holds the skeleton-factor results (CUR, TwoSidedID, ACA): two
	// index vectors, sparse C/R and a small dense core.
	CUR *cur.Result
}

// Approximate runs the selected fixed-precision method on a: every
// method's body runs on max(Procs, 1) virtual ranks, and the result
// carries the modeled-time telemetry of that world. The error rule is
// dist.RunRoot's: at one rank a body's own error comes back unwrapped,
// and a panic or an injected fault is a *dist.RankError.
func Approximate(a *sparse.CSR, opts Options) (*Approximation, error) {
	if math.IsNaN(opts.Tol) || math.IsInf(opts.Tol, 0) {
		return nil, fmt.Errorf("core: tolerance must be finite, got %v", opts.Tol)
	}
	if opts.Tol <= 0 && opts.MaxRank <= 0 {
		return nil, fmt.Errorf("core: need a positive tolerance or a MaxRank cap")
	}
	mi, known := methodInfo(opts.Method)
	if !known {
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	if opts.Procs > 1 && !mi.Dist {
		return nil, fmt.Errorf("core: %v has no distributed implementation; use Procs ≤ 1", opts.Method)
	}
	cfg := dist.DefaultConfig()
	if opts.DistConfig != nil {
		cfg = *opts.DistConfig
	}
	start := time.Now()
	ap, res, err := dist.RunRoot(max(opts.Procs, 1), cfg, func(c *dist.Comm) (*Approximation, error) {
		return solve(c, a, opts)
	})
	if err != nil {
		return nil, err
	}
	ap.NNZFactors = ap.factorEntries()
	ap.WallTime = time.Since(start)
	ap.Dist = res
	ap.VirtualTime = res.MaxTime()
	ap.KernelTimes = res.MaxKernels()
	for _, s := range res.Ranks {
		ap.CommTime = max(ap.CommTime, s.CommTime)
	}
	return ap, nil
}

// solve is the one dispatch: it runs the method's body as rank c and
// fills the uniform result fields from the method's own result.
func solve(c *dist.Comm, a *sparse.CSR, opts Options) (*Approximation, error) {
	ap := &Approximation{Method: opts.Method}
	var err error
	switch opts.Method {
	case RandQBEI:
		var r *randqb.Result
		if r, err = randqb.FactorDist(c, a, qbOptions(opts), nil); err == nil {
			ap.QB = r
			ap.set(r.Rank, r.Iters, r.NormA, r.ErrIndicator, r.Converged, r.ErrHistory)
		}
	case RandUBV:
		var r *randubv.Result
		if r, err = randubv.FactorDist(c, a, ubvOptions(opts)); err == nil {
			ap.UBV = r
			ap.set(r.Rank, r.Iters, r.NormA, r.ErrIndicator, r.Converged, r.ErrHistory)
		}
	case LUCRTP, ILUTCRTP:
		var r *lucrtp.Result
		if r, err = lucrtp.FactorDist(c, a, luOptions(opts)); err == nil {
			ap.LU = r
			ap.set(r.Rank, r.Iters, r.NormA, r.ErrIndicator, r.Converged, r.ErrHistory)
		}
	case TSVD:
		var r *tsvd.Result
		if opts.Tol <= 0 && opts.MaxRank > 0 {
			r, err = tsvd.FixedRank(c, a, opts.MaxRank)
		} else {
			r, err = tsvd.FixedPrecision(c, a, opts.Tol)
		}
		if err == nil {
			ap.SVD = r
			ap.set(r.Rank, 0, r.NormA, r.TailNorm, opts.Tol > 0 && r.TailNorm < opts.Tol*r.NormA, nil)
		}
	case RSVDRestart:
		var r *rsvd.Result
		if r, err = rsvd.Factor(c, a, rsvd.Options{
			InitialRank: opts.BlockSize, Tol: opts.Tol, Power: opts.Power,
			MaxRank: opts.MaxRank, Seed: opts.Seed,
			Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
		}); err == nil {
			ap.RS = r
			ap.set(r.Rank, r.Restarts, r.NormA, r.ErrIndicator, r.Converged, nil)
		}
	case ARRF:
		var r *arrf.Result
		if r, err = arrf.Factor(c, a, arrf.Options{
			Tol: opts.Tol, MaxRank: opts.MaxRank, Seed: opts.Seed,
			Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
		}); err == nil {
			ap.ARRF = r
			ap.set(r.Rank, r.Probes, r.NormA, r.ErrBound, r.Converged, nil)
		}
	case CUR, TwoSidedID, ACA:
		var r *cur.Result
		if r, err = cur.Factor(c, a, curVariant[opts.Method], qbOptions(opts)); err == nil {
			ap.CUR = r
			ap.set(r.Rank, r.Iters, r.NormA, r.ErrIndicator, r.Converged, r.ErrHistory)
		}
	}
	if err != nil {
		return nil, err
	}
	return ap, nil
}

// curVariant maps the skeleton methods onto internal/cur's variants.
var curVariant = map[Method]cur.Variant{CUR: cur.CUR, TwoSidedID: cur.ID2, ACA: cur.ACA}

// set fills the uniform result fields.
func (ap *Approximation) set(rank, iters int, normA, indicator float64, converged bool, history []float64) {
	ap.Rank, ap.Iters, ap.NormA = rank, iters, normA
	ap.ErrIndicator, ap.Converged, ap.ErrHistory = indicator, converged, history
}

// FailureClass partitions the errors a run can produce into the
// categories the CLI and the serving daemon report distinctly:
// numerical breakdown (retryable with different parameters), a
// distributed-runtime rank crash, a distributed-runtime deadlock, and
// everything else.
type FailureClass int

const (
	// FailureNone marks a nil error.
	FailureNone FailureClass = iota
	// FailureBreakdown is a numerical breakdown (lucrtp.ErrBreakdown),
	// even when it surfaces wrapped inside a *dist.RankError.
	FailureBreakdown
	// FailureRankCrash is a structured distributed-runtime failure: a
	// rank crashed, panicked or returned an error (*dist.RankError).
	FailureRankCrash
	// FailureDeadlock is a detected distributed-runtime deadlock
	// (*dist.DeadlockError).
	FailureDeadlock
	// FailureOther covers every remaining error (bad input, I/O, ...).
	FailureOther
)

// String names the class for logs and JSON payloads.
func (c FailureClass) String() string {
	switch c {
	case FailureNone:
		return "none"
	case FailureBreakdown:
		return "breakdown"
	case FailureRankCrash:
		return "rank_crash"
	case FailureDeadlock:
		return "deadlock"
	case FailureOther:
		return "error"
	}
	return fmt.Sprintf("FailureClass(%d)", int(c))
}

// ExitCode is the cmd/lowrank process exit status for the class: 2 for
// a breakdown, 3 for the structured distributed failures, 1 otherwise
// (0 for FailureNone).
func (c FailureClass) ExitCode() int {
	switch c {
	case FailureNone:
		return 0
	case FailureBreakdown:
		return 2
	case FailureRankCrash, FailureDeadlock:
		return 3
	}
	return 1
}

// ClassifyFailure maps a run error onto its FailureClass. The breakdown
// check runs first so a breakdown that crashed a rank still reports as
// a breakdown (it is the actionable root cause).
func ClassifyFailure(err error) FailureClass {
	var re *dist.RankError
	var de *dist.DeadlockError
	switch {
	case err == nil:
		return FailureNone
	case errors.Is(err, lucrtp.ErrBreakdown):
		return FailureBreakdown
	case errors.Is(err, mat.ErrSingular):
		// A numerically rank-deficient skeleton (CUR/ID2 cross or
		// least-squares core) is a breakdown of the input regime, not
		// a crash: same remediation advice as an LU breakdown.
		return FailureBreakdown
	case errors.As(err, &re):
		return FailureRankCrash
	case errors.As(err, &de):
		return FailureDeadlock
	}
	return FailureOther
}

// qbOptions, ubvOptions and luOptions translate the run options into each
// solver's own.
func qbOptions(o Options) randqb.Options {
	return randqb.Options{
		BlockSize: o.BlockSize, Tol: o.Tol, Power: o.Power,
		MaxRank: o.MaxRank, Seed: o.Seed,
		Sketch: o.Sketch, SketchNNZ: o.SketchNNZ,
		CheckpointEvery: o.CheckpointEvery, Checkpoint: o.CheckpointStore,
	}
}

func ubvOptions(o Options) randubv.Options {
	return randubv.Options{
		BlockSize: o.BlockSize, Tol: o.Tol, MaxRank: o.MaxRank, Seed: o.Seed,
		Sketch: o.Sketch, SketchNNZ: o.SketchNNZ,
		CheckpointEvery: o.CheckpointEvery, Checkpoint: o.CheckpointStore,
	}
}

func luOptions(o Options) lucrtp.Options {
	lo := lucrtp.Options{
		BlockSize: o.BlockSize, Tol: o.Tol, MaxRank: o.MaxRank,
		EstIters: o.EstIters, Reorder: o.Reorder,
		CheckpointEvery: o.CheckpointEvery, Checkpoint: o.CheckpointStore,
	}
	if o.Method == ILUTCRTP {
		lo.Threshold = lucrtp.AutoThreshold
	}
	return lo
}

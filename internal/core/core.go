package core

import (
	"errors"
	"fmt"
	"time"

	"sparselr/internal/arrf"
	"sparselr/internal/cur"
	"sparselr/internal/dist"
	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/qrtp"
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
	// CUR is the randomized CUR decomposition: sketch-then-QRCP skeleton
	// selection on both sides with the least-squares core U = C⁺AR⁺
	// (internal/cur). Its C and R factors are actual columns/rows of A.
	CUR
	// TwoSidedID is the two-sided interpolative decomposition ("ID2"):
	// sketched column selection, a second QRCP pass on the selected
	// columns for the rows, and the skeleton-inverse core A(I,J)⁻¹.
	TwoSidedID
	// ACA is adaptive cross approximation with partial pivoting: a
	// sketch-free skeleton method walking CSR residual rows and columns.
	ACA
)

// String, ParseMethod, DistCapable and MethodUsage derive from the
// method registry in registry.go.

// Options configures a run. Zero values give sensible defaults
// (BlockSize 8, sequential execution).
type Options struct {
	Method    Method
	BlockSize int     // k
	Tol       float64 // τ
	MaxRank   int     // cap on K (0 = min(m,n))

	// Randomized-method knobs.
	Power int   // RandQB_EI power parameter p ∈ [0,3]
	Seed  int64 // PRNG seed
	// Sketch selects the sketching operator of the randomized methods
	// (RandQB_EI, RandUBV, RSVD, ARRF); the default Gaussian reproduces
	// historical results bit-for-bit. SketchNNZ sets the per-row nonzero
	// count of the SparseSign sketch (0 → sketch.DefaultSparseNNZ).
	Sketch    sketch.Kind
	SketchNNZ int

	// Deterministic-method knobs.
	EstIters            int     // u of eq (24) for ILUT_CRTP (0 → 10)
	Mu                  float64 // fixed threshold (0 → automatic via eq 24)
	Aggressive          bool    // aggressive sorted-drop thresholding (§VI-A)
	Reorder             lucrtp.ReorderMode
	StableL             bool
	DiscardTol          float64 // >0 enables Cayrols-style column discarding
	Tree                qrtp.Tree
	StopAtNumericalRank bool

	// Procs > 1 runs the method's distributed implementation on that
	// many virtual ranks (RandQB_EI, LU_CRTP, ILUT_CRTP, and — as this
	// library's implementation of the paper's stated future work —
	// RandUBV); Procs ≤ 1 runs sequentially. TSVD, RSVD and ARRF are
	// sequential-only.
	Procs      int
	DistConfig *dist.Config // nil → dist.DefaultConfig()

	// Checkpointing for the loop solvers (RandQBEI and RandUBV at any
	// Procs, LUCRTP and ILUTCRTP on the distributed path): when
	// CheckpointEvery > 0 and CheckpointStore is non-nil, each rank saves
	// its loop state every CheckpointEvery iterations, and a rerun with
	// the same Procs against a store holding a complete snapshot resumes
	// from it to a bit-identical result.
	CheckpointEvery int
	CheckpointStore *dist.CheckpointStore
}

// Approximation is the uniform result of a run. Exactly one of LU, QB,
// UBV, SVD is non-nil depending on the method.
type Approximation struct {
	Method Method

	Rank  int
	Iters int
	NormA float64

	ErrIndicator float64
	Converged    bool
	ErrHistory   []float64

	// NNZFactors counts the stored entries of the produced factors:
	// nnz(L)+nnz(U) for the deterministic methods, the dense element
	// count of the Q/B (resp. U/B/V) factors for the randomized ones.
	NNZFactors int

	WallTime time.Duration
	// Distributed-run telemetry (Procs > 1).
	VirtualTime float64
	CommTime    float64
	KernelTimes map[string]float64
	// Dist holds the full per-rank virtual-time statistics of a
	// distributed run (nil for sequential runs). To additionally record
	// an event trace, attach a dist.Tracer (e.g. dist.NewTrace()) to
	// Options.DistConfig.Tracer before calling Approximate.
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

// TrueError evaluates the exact approximation error ‖·‖_F against a.
func (ap *Approximation) TrueError(a *sparse.CSR) float64 {
	switch {
	case ap.LU != nil:
		return lucrtp.TrueError(a, ap.LU)
	case ap.QB != nil:
		return randqb.TrueError(a, ap.QB)
	case ap.UBV != nil:
		return randubv.TrueError(a, ap.UBV)
	case ap.SVD != nil:
		us := ap.SVD.U.Clone()
		for j := 0; j < len(ap.SVD.S); j++ {
			for i := 0; i < us.Rows; i++ {
				us.Set(i, j, us.At(i, j)*ap.SVD.S[j])
			}
		}
		return a.ResidualFrobNorm(us, ap.SVD.V.T())
	case ap.RS != nil:
		return rsvd.TrueError(a, ap.RS)
	case ap.ARRF != nil:
		return arrf.ResidualNorm(a, ap.ARRF)
	case ap.CUR != nil:
		return cur.TrueError(a, ap.CUR)
	}
	return 0
}

// Reconstruct forms the dense approximation (for inspection at small
// sizes; O(m·n) memory).
func (ap *Approximation) Reconstruct() *mat.Dense {
	switch {
	case ap.LU != nil:
		return sparse.SpGEMM(ap.LU.L, ap.LU.U).ToDense()
	case ap.QB != nil:
		return ap.QB.Approx()
	case ap.UBV != nil:
		return ap.UBV.Approx()
	case ap.SVD != nil:
		return ap.SVD.Approx()
	case ap.RS != nil:
		return ap.RS.Approx()
	case ap.CUR != nil:
		return ap.CUR.Approx()
	}
	return nil
}

// FixedRank runs the method in fixed-rank mode (§I of the paper
// distinguishes fixed-rank from fixed-precision problems): the rank k is
// prescribed and no tolerance-based stop applies. Converged is not
// meaningful in this mode; inspect ErrIndicator for the achieved error.
func FixedRank(a *sparse.CSR, method Method, k int, opts Options) (*Approximation, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: fixed-rank mode needs k > 0, got %d", k)
	}
	opts.Method = method
	opts.MaxRank = k
	opts.Tol = 0
	return Approximate(a, opts)
}

// Approximate runs the selected fixed-precision method on a.
func Approximate(a *sparse.CSR, opts Options) (*Approximation, error) {
	if opts.Tol <= 0 && !opts.StopAtNumericalRank && opts.MaxRank <= 0 {
		return nil, fmt.Errorf("core: need a positive tolerance, a MaxRank cap, or StopAtNumericalRank")
	}
	// Procs ≥ 1 requests the distributed implementation (np = 1 still
	// yields the modeled single-rank time, the baseline of the scaling
	// curves); Procs = 0 runs the plain sequential code path.
	if opts.Procs > 1 || (opts.Procs == 1 && opts.Method.DistCapable()) {
		return approximateDist(a, opts)
	}
	start := time.Now()
	ap := &Approximation{Method: opts.Method}
	switch opts.Method {
	case RandQBEI:
		r, err := randqb.Factor(a, qbOptions(opts))
		if err != nil {
			return nil, err
		}
		ap.setQB(r)
	case RandUBV:
		r, err := randubv.Factor(a, ubvOptions(opts))
		if err != nil {
			return nil, err
		}
		ap.setUBV(r)
	case LUCRTP, ILUTCRTP:
		r, err := lucrtp.Factor(a, luOptions(opts))
		if err != nil {
			return nil, err
		}
		ap.setLU(r)
	case TSVD:
		var r *tsvd.Result
		var err error
		if opts.Tol <= 0 && opts.MaxRank > 0 {
			r, err = tsvd.FixedRank(a, opts.MaxRank)
		} else {
			r, err = tsvd.FixedPrecision(a, opts.Tol)
		}
		if err != nil {
			return nil, err
		}
		ap.SVD = r
		ap.Rank, ap.NormA = r.Rank, r.NormA
		ap.ErrIndicator = r.TailNorm
		ap.Converged = opts.Tol > 0 && r.TailNorm < opts.Tol*r.NormA
		ap.NNZFactors = r.U.Rows*r.U.Cols + len(r.S) + r.V.Rows*r.V.Cols
	case RSVDRestart:
		r, err := rsvd.Factor(a, rsvd.Options{
			InitialRank: opts.BlockSize, Tol: opts.Tol, Power: opts.Power,
			MaxRank: opts.MaxRank, Seed: opts.Seed,
			Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
		})
		if err != nil {
			return nil, err
		}
		ap.RS = r
		ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Restarts, r.NormA
		ap.ErrIndicator, ap.Converged = r.ErrIndicator, r.Converged
		ap.NNZFactors = r.U.Rows*r.U.Cols + len(r.S) + r.V.Rows*r.V.Cols
	case ARRF:
		r, err := arrf.Factor(a, arrf.Options{
			Tol: opts.Tol, RelativeToFrob: true,
			MaxRank: opts.MaxRank, Seed: opts.Seed,
			Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
		})
		if err != nil {
			return nil, err
		}
		ap.ARRF = r
		ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Probes, r.NormA
		ap.ErrIndicator, ap.Converged = r.ErrBound, r.Converged
		ap.NNZFactors = r.Q.Rows * r.Q.Cols
	case CUR, TwoSidedID, ACA:
		variant := cur.CUR
		switch opts.Method {
		case TwoSidedID:
			variant = cur.ID2
		case ACA:
			variant = cur.ACA
		}
		r, err := cur.Factor(a, cur.Options{
			Variant: variant, BlockSize: opts.BlockSize, Tol: opts.Tol,
			MaxRank: opts.MaxRank, Seed: opts.Seed,
			Sketch: opts.Sketch, SketchNNZ: opts.SketchNNZ,
		})
		if err != nil {
			return nil, err
		}
		ap.CUR = r
		ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Iters, r.NormA
		ap.ErrIndicator, ap.Converged, ap.ErrHistory = r.ErrIndicator, r.Converged, r.ErrHistory
		ap.NNZFactors = r.NNZFactors()
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	ap.WallTime = time.Since(start)
	return ap, nil
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

// approximateDist runs the method's distributed implementation on
// opts.Procs virtual ranks and fills the modeled-time telemetry.
func approximateDist(a *sparse.CSR, opts Options) (*Approximation, error) {
	cfg := dist.DefaultConfig()
	if opts.DistConfig != nil {
		cfg = *opts.DistConfig
	}
	ap := &Approximation{Method: opts.Method}
	start := time.Now()
	var innerErr error
	var res *dist.Result
	switch opts.Method {
	case RandQBEI:
		res, innerErr = runRanks(opts.Procs, cfg, func(c *dist.Comm) (*randqb.Result, error) {
			return randqb.FactorDist(c, a, qbOptions(opts))
		}, ap.setQB)
	case LUCRTP, ILUTCRTP:
		res, innerErr = runRanks(opts.Procs, cfg, func(c *dist.Comm) (*lucrtp.Result, error) {
			return lucrtp.FactorDist(c, a, luOptions(opts))
		}, ap.setLU)
	case RandUBV:
		res, innerErr = runRanks(opts.Procs, cfg, func(c *dist.Comm) (*randubv.Result, error) {
			return randubv.FactorDist(c, a, ubvOptions(opts))
		}, ap.setUBV)
	default:
		if _, ok := methodInfo(opts.Method); !ok {
			return nil, fmt.Errorf("core: unknown method %v", opts.Method)
		}
		return nil, fmt.Errorf("core: %v has no distributed implementation; use Procs ≤ 1", opts.Method)
	}
	if innerErr != nil {
		return nil, innerErr
	}
	ap.WallTime = time.Since(start)
	ap.Dist = res
	ap.VirtualTime = res.MaxTime()
	ap.KernelTimes = map[string]float64{}
	for _, name := range res.KernelNames() {
		ap.KernelTimes[name] = res.MaxKernel(name)
	}
	var comm float64
	for _, s := range res.Ranks {
		if s.CommTime > comm {
			comm = s.CommTime
		}
	}
	ap.CommTime = comm
	return ap, nil
}

// runRanks runs body on p ranks and hands rank 0's result to set.
func runRanks[T any](p int, cfg dist.Config, body func(*dist.Comm) (T, error), set func(T)) (*dist.Result, error) {
	return dist.RunE(p, cfg, func(c *dist.Comm) error {
		r, err := body(c)
		if err == nil && c.Rank() == 0 {
			set(r)
		}
		return err
	})
}

// qbOptions, ubvOptions and luOptions translate the run options into each
// solver's own, for the sequential and the distributed path alike.
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
		EstIters: o.EstIters, Mu: o.Mu, Reorder: o.Reorder,
		Tree: o.Tree, StableL: o.StableL, DiscardTol: o.DiscardTol,
		StopAtNumericalRank: o.StopAtNumericalRank, CheckpointEvery: o.CheckpointEvery,
		Checkpoint: o.CheckpointStore,
	}
	if o.Method == ILUTCRTP {
		switch {
		case o.Aggressive:
			lo.Threshold = lucrtp.AggressiveThreshold
		case o.Mu > 0:
			lo.Threshold = lucrtp.FixedThreshold
		default:
			lo.Threshold = lucrtp.AutoThreshold
		}
	}
	return lo
}

// setQB, setUBV and setLU fill the uniform result fields from each
// solver's result.
func (ap *Approximation) setQB(r *randqb.Result) {
	ap.QB = r
	ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Iters, r.NormA
	ap.ErrIndicator, ap.Converged, ap.ErrHistory = r.ErrIndicator, r.Converged, r.ErrHistory
	ap.NNZFactors = r.Q.Rows*r.Q.Cols + r.B.Rows*r.B.Cols
}

func (ap *Approximation) setUBV(r *randubv.Result) {
	ap.UBV = r
	ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Iters, r.NormA
	ap.ErrIndicator, ap.Converged, ap.ErrHistory = r.ErrIndicator, r.Converged, r.ErrHistory
	ap.NNZFactors = r.U.Rows*r.U.Cols + r.B.Rows*r.B.Cols + r.V.Rows*r.V.Cols
}

func (ap *Approximation) setLU(r *lucrtp.Result) {
	ap.LU = r
	ap.Rank, ap.Iters, ap.NormA = r.Rank, r.Iters, r.NormA
	ap.ErrIndicator, ap.Converged, ap.ErrHistory = r.ErrIndicator, r.Converged, r.ErrHistory
	ap.NNZFactors = r.NNZFactors()
}

package experiments

import (
	"fmt"
	"time"

	"sparselr/internal/core"
)

// CURRow is one (matrix, method) entry of the skeleton-method
// accuracy-vs-cost sweep: CUR, the two-sided ID and ACA against the
// RandQB_EI and RandUBV baselines at each matrix's Table II block size
// and tightest tolerance, with the achieved accuracy, the rank the
// method needed, and the factor-storage cost that is the skeleton
// family's selling point.
type CURRow struct {
	Label  string
	Method core.Method
	Tol    float64

	Rank, Iters int
	Converged   bool
	Achieved    float64 // ErrIndicator / ‖A‖_F
	TrueRel     float64 // ‖A − Â‖_F / ‖A‖_F (exact, streamed)

	FactorNNZ   int   // stored factor entries
	FactorBytes int64 // resident factor bytes (core.Factor.Bytes)
	WallTime    time.Duration
}

// curSweepMethods is the comparison set: the three skeleton variants
// against the paper's randomized baselines.
var curSweepMethods = []core.Method{
	core.CUR, core.TwoSidedID, core.ACA, core.RandQBEI, core.RandUBV,
}

// RunCUR sweeps the skeleton methods over the Table I workloads: every
// matrix at its Table II block size and tightest tolerance, each method
// run sequentially (the skeleton family has no distributed path, so the
// wall clock is the fair cost axis), reporting accuracy, rank, and the
// factor footprint in entries and estimated bytes. The bytes column is
// where CUR/ID2/ACA win: their outer factors are actual sparse rows and
// columns of A, so a rank-k result is indices + a k×k core instead of
// two dense panels.
func RunCUR(cfg Config) []CURRow {
	w := cfg.out()
	fmt.Fprintln(w, "CUR/ID2/ACA sweep: skeleton methods vs RandQB_EI / RandUBV, accuracy vs factor cost")
	fmt.Fprintf(w, "%-4s %-10s %8s | %4s %5s %5s | %10s %10s | %10s %10s %12s\n",
		"mat", "method", "tau", "conv", "rank", "iters", "achieved", "true_rel", "fact_nnz", "fact_B", "wall")
	var rows []CURRow
	for _, m := range cfg.tableIWorkloads() {
		p := paramsFor(m.Label, cfg.Scale)
		tol := p.Tols[len(p.Tols)-1]
		for _, method := range curSweepMethods {
			ap, err := core.Approximate(m.A, core.Options{
				Method: method, BlockSize: p.K, Tol: tol, Power: 1,
				Seed: cfg.Seed, SketchNNZ: cfg.SketchNNZ,
			})
			if err != nil {
				fmt.Fprintf(w, "# %s %v error: %v\n", m.Label, method, err)
				continue
			}
			row := CURRow{
				Label: m.Label, Method: method, Tol: tol,
				Rank: ap.Rank, Iters: ap.Iters, Converged: ap.Converged,
				Achieved:    ap.ErrIndicator / ap.NormA,
				TrueRel:     ap.TrueError(m.A) / ap.NormA,
				FactorNNZ:   ap.NNZFactors,
				FactorBytes: ap.FactorBytes(),
				WallTime:    ap.WallTime,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-4s %-10s %8.0e | %4v %5d %5d | %10.4g %10.4g | %10d %10d %12v\n",
				row.Label, row.Method, row.Tol, row.Converged, row.Rank, row.Iters,
				row.Achieved, row.TrueRel, row.FactorNNZ, row.FactorBytes,
				row.WallTime.Round(time.Microsecond))
		}
	}
	return rows
}

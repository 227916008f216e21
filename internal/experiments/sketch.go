package experiments

import (
	"fmt"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/sketch"
)

// SketchRow is one (matrix, sketch kind) entry of the accuracy-vs-cost
// sketch sweep: RandQB_EI driven by each sketching operator at the
// matrix's Table II parameters and tightest tolerance, with the achieved
// relative error, the exact residual cross-check, and the modeled
// parallel cost under each sketch's flop model.
type SketchRow struct {
	Label string
	Kind  sketch.Kind
	Tol   float64

	Rank, Iters int
	Converged   bool
	Achieved    float64 // ErrIndicator / ‖A‖_F
	TrueRel     float64 // ‖A − QB‖_F / ‖A‖_F (exact, streamed)

	VirtualTime float64 // modeled parallel seconds on the Table II np
	WallTime    time.Duration
}

// RunSketch sweeps the sketching operators over the Table I workloads:
// for every matrix it runs RandQB_EI with the Gaussian, SparseSign and
// SRTT sketches at the matrix's Table II block size, rank budget and
// tightest tolerance, reporting the tolerance each sketch actually
// achieved, the rank it needed, and the modeled parallel cost charged by
// that sketch's cost model — the accuracy-vs-cost trade the structured
// sketches buy.
func RunSketch(cfg Config) []SketchRow {
	w := cfg.out()
	fmt.Fprintln(w, "Sketch sweep: RandQB_EI accuracy vs cost per sketching operator")
	fmt.Fprintf(w, "%-4s %-11s %8s | %4s %5s %5s | %10s %10s | %10s %12s\n",
		"mat", "sketch", "tau", "conv", "rank", "iters", "achieved", "true_rel", "model_s", "wall")
	kinds := []sketch.Kind{sketch.Gaussian, sketch.SparseSign, sketch.SRTT}
	var rows []SketchRow
	for _, m := range cfg.tableIWorkloads() {
		p := paramsFor(m.Label, cfg.Scale)
		tol := p.Tols[len(p.Tols)-1]
		for _, kind := range kinds {
			opts := core.Options{
				Method: core.RandQBEI, BlockSize: p.K, Tol: tol, Power: 1,
				Seed: cfg.Seed, Procs: p.NP, Sketch: kind,
			}
			if kind == sketch.SparseSign {
				opts.SketchNNZ = cfg.SketchNNZ
			}
			ap, err := core.Approximate(m.A, opts)
			if err != nil {
				fmt.Fprintf(w, "# %s %v error: %v\n", m.Label, kind, err)
				continue
			}
			row := SketchRow{
				Label: m.Label, Kind: kind, Tol: tol,
				Rank: ap.Rank, Iters: ap.Iters, Converged: ap.Converged,
				Achieved:    ap.ErrIndicator / ap.NormA,
				TrueRel:     ap.TrueError(m.A) / ap.NormA,
				VirtualTime: ap.VirtualTime,
				WallTime:    ap.WallTime,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-4s %-11s %8.0e | %4v %5d %5d | %10.4g %10.4g | %10.4g %12v\n",
				row.Label, row.Kind, row.Tol, row.Converged, row.Rank, row.Iters,
				row.Achieved, row.TrueRel, row.VirtualTime, row.WallTime.Round(time.Microsecond))
		}
	}
	return rows
}

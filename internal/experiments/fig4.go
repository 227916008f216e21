package experiments

import (
	"fmt"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// ScalingSeries is one method's strong-scaling curve on one matrix.
type ScalingSeries struct {
	Label   string // matrix label
	Method  string
	Procs   []int
	Times   []float64 // modeled parallel runtime per proc count
	Speedup []float64 // Times[0]-relative
}

// RunFig4 reproduces the strong-scaling study of Fig 4: speedups of
// RandQB_EI (p=1), LU_CRTP and ILUT_CRTP at fixed approximation quality,
// on the M2 analog (left plot, small k) and the M4/M5 analogs (right
// plot, larger k), over doubling virtual-rank counts.
func RunFig4(cfg Config) []ScalingSeries {
	w := cfg.out()
	fmt.Fprintln(w, "Fig 4: strong scaling (speedup over the smallest np, modeled time)")
	type study struct {
		label string
		kDiv  int // divide the Table II k (left plot used a smaller k)
		tol   float64
	}
	studies := []study{
		{label: "M2", kDiv: 2, tol: 1e-4},
		{label: "M4", kDiv: 1, tol: 1e-3},
		{label: "M5", kDiv: 1, tol: 1e-3},
	}
	var out []ScalingSeries
	for _, st := range studies {
		var matched bool
		for _, m := range cfg.tableIWorkloads() {
			if m.Label != st.label {
				continue
			}
			matched = true
			p := paramsFor(m.Label, cfg.Scale)
			k := p.K / st.kDiv
			if k < 2 {
				k = 2
			}
			var procs []int
			for np := 1; np <= cfg.maxProcs(); np *= 2 {
				procs = append(procs, np)
			}
			for _, method := range []core.Method{core.RandQBEI, core.LUCRTP, core.ILUTCRTP} {
				series := ScalingSeries{Label: m.Label, Method: method.String(), Procs: procs}
				var extra []string // per-np trace breakdown lines
				for _, np := range procs {
					opts := core.Options{
						Method: method, BlockSize: k, Tol: st.tol, Power: 1,
						Seed: cfg.Seed + 5, Procs: np, EstIters: p.EstIter,
					}
					var tr *dist.Trace
					if cfg.tracing() {
						opts.DistConfig, tr = tracedDistConfig()
					}
					ap, err := core.Approximate(m.A, opts)
					if err != nil || !ap.Converged {
						series.Times = append(series.Times, 0)
						continue
					}
					series.Times = append(series.Times, ap.VirtualTime)
					if tr != nil {
						if cfg.Breakdown {
							extra = append(extra, traceBreakdownLine(np, ap.Dist, tr))
						}
						if cfg.TraceDir != "" {
							writeTraceFile(w, cfg.TraceDir,
								fmt.Sprintf("fig4_%s_%s_np%d.json", m.Label, series.Method, np), tr)
						}
					}
				}
				base := 0.0
				for _, t := range series.Times {
					if t > 0 {
						base = t
						break
					}
				}
				for _, t := range series.Times {
					if t > 0 && base > 0 {
						series.Speedup = append(series.Speedup, base/t)
					} else {
						series.Speedup = append(series.Speedup, 0)
					}
				}
				out = append(out, series)
				fmt.Fprintf(w, "%s %-10s k=%-3d %s ", m.Label, series.Method, k, sparkline(series.Speedup))
				for i, np := range procs {
					fmt.Fprintf(w, " np%d=%.2fx", np, series.Speedup[i])
				}
				fmt.Fprintln(w)
				for _, line := range extra {
					fmt.Fprintln(w, line)
				}
			}
		}
		_ = matched
	}
	return out
}

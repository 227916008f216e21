package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sparselr/internal/core"
	"sparselr/internal/dist"
)

// figPrefix turns a runner title ("Fig 5") into a file prefix ("fig5").
func figPrefix(title string) string {
	return strings.ReplaceAll(strings.ToLower(title), " ", "")
}

// KernelBreakdown is one bar of Figs 5–6: the per-kernel modeled time of
// one (method, np, k) configuration, max across ranks.
type KernelBreakdown struct {
	Method  string
	Label   string
	NP, K   int
	Power   int // RandQB only
	Kernels map[string]float64
	Total   float64
	OK      bool
}

// RunFig5 reproduces Fig 5: the kernel runtime breakdown of LU_CRTP and
// ILUT_CRTP on the M2 analog at τ = 1e-3 over varying np and k — the
// figure showing column QR_TP, the Schur complement and the local row
// permutations dominating when fill-in is significant.
func RunFig5(cfg Config) []KernelBreakdown {
	return runKernelBreakdown(cfg, "Fig 5", []core.Method{core.LUCRTP, core.ILUTCRTP}, []int{0})
}

// RunFig6 reproduces Fig 6: the same breakdown for RandQB_EI with
// p ∈ {0, 2}.
func RunFig6(cfg Config) []KernelBreakdown {
	return runKernelBreakdown(cfg, "Fig 6", []core.Method{core.RandQBEI}, []int{0, 2})
}

func runKernelBreakdown(cfg Config, title string, methods []core.Method, powers []int) []KernelBreakdown {
	w := cfg.out()
	fmt.Fprintf(w, "%s: kernel runtime breakdown on M2, tau=1e-3 (modeled seconds, max over ranks)\n", title)
	var out []KernelBreakdown
	for _, m := range cfg.tableIWorkloads() {
		if m.Label != "M2" {
			continue
		}
		_, n := m.A.Dims()
		base := paramsFor(m.Label, cfg.Scale)
		ks := []int{base.K / 2, base.K, base.K * 2}
		for _, k := range ks {
			if k < 2 {
				continue
			}
			for np := 2; np <= cfg.maxProcs() && np*k <= n; np *= 2 {
				for _, method := range methods {
					for _, pw := range powers {
						if method != core.RandQBEI && pw != 0 {
							continue
						}
						opts := core.Options{
							Method: method, BlockSize: k, Tol: 1e-3, Power: pw,
							Seed: cfg.Seed + 6, Procs: np, EstIters: base.EstIter,
						}
						var tr *dist.Trace
						if cfg.tracing() {
							opts.DistConfig, tr = tracedDistConfig()
						}
						ap, err := core.Approximate(m.A, opts)
						kb := KernelBreakdown{
							Method: method.String(), Label: m.Label, NP: np, K: k, Power: pw,
						}
						if err == nil && ap.Converged {
							kb.Kernels = ap.KernelTimes
							kb.Total = ap.VirtualTime
							kb.OK = true
						}
						out = append(out, kb)
						printBreakdown(w, kb)
						if tr != nil && kb.OK {
							if cfg.Breakdown {
								fmt.Fprintln(w, traceBreakdownLine(np, ap.Dist, tr))
							}
							if cfg.TraceDir != "" {
								writeTraceFile(w, cfg.TraceDir, fmt.Sprintf("%s_%s_np%d_k%d_p%d.json",
									figPrefix(title), kb.Method, np, k, pw), tr)
							}
						}
					}
				}
			}
		}
	}
	return out
}

func printBreakdown(w interface{ Write([]byte) (int, error) }, kb KernelBreakdown) {
	if !kb.OK {
		fmt.Fprintf(w, "%-10s np=%-4d k=%-4d p=%d: -\n", kb.Method, kb.NP, kb.K, kb.Power)
		return
	}
	names := make([]string, 0, len(kb.Kernels))
	for name := range kb.Kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s np=%-4d k=%-4d p=%d total=%.3g\n", kb.Method, kb.NP, kb.K, kb.Power, kb.Total)
	vals := make([]float64, len(names))
	for i, name := range names {
		vals[i] = kb.Kernels[name]
	}
	printBarChart(w, names, vals, 32)
}

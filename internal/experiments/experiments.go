package experiments

import (
	"fmt"
	"io"

	"sparselr/internal/gen"
)

// Config controls workload sizes and output.
type Config struct {
	Scale gen.Scale
	Out   io.Writer // nil discards output
	Seed  int64
	// Matrices filters Table I workloads by label (nil = all).
	Matrices []string
	// MaxProcs caps the virtual-rank sweeps (0 → scale default).
	MaxProcs int
	// SuiteSize overrides the SJSU suite size (0 → scale default:
	// Small 48, otherwise the full 197).
	SuiteSize int
	// SweepBest replicates the paper's Table II protocol of selecting
	// "NP and block size ... with best performance for the highest
	// approximation quality": each matrix's (np, k) is chosen by a
	// small grid search at its tightest tolerance before the table rows
	// are produced. Considerably slower.
	SweepBest bool
	// Breakdown attaches an event tracer to every distributed run of
	// the Fig 4–6 drivers and prints, per configuration, the
	// compute/comm/wait split and critical-path bound derived from the
	// recorded trace (instead of the runtime's aggregate counters).
	Breakdown bool
	// TraceDir, when non-empty, additionally exports each traced run as
	// Chrome trace_event JSON (fig4_M2_LU_CRTP_np8.json, ...) loadable
	// in chrome://tracing or Perfetto.
	TraceDir string
	// SketchNNZ sets the SparseSign per-row nonzero count used by the
	// sketch sweep (0 → sketch.DefaultSparseNNZ).
	SketchNNZ int
}

// tracing reports whether the Fig 4–6 drivers should attach a tracer.
func (c *Config) tracing() bool { return c.Breakdown || c.TraceDir != "" }

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c *Config) wants(label string) bool {
	if len(c.Matrices) == 0 {
		return true
	}
	for _, m := range c.Matrices {
		if m == label {
			return true
		}
	}
	return false
}

func (c *Config) maxProcs() int {
	if c.MaxProcs > 0 {
		return c.MaxProcs
	}
	switch c.Scale {
	case gen.Small:
		return 16
	case gen.Medium:
		return 64
	default:
		return 512
	}
}

func (c *Config) suiteSize() int {
	if c.SuiteSize > 0 {
		return c.SuiteSize
	}
	if c.Scale == gen.Small {
		return 48
	}
	return gen.SJSUSuiteSize
}

// tableIWorkloads returns the selected Table I analogs.
func (c *Config) tableIWorkloads() []gen.PaperMatrix {
	var out []gen.PaperMatrix
	for _, m := range gen.TableI(c.Scale) {
		if c.wants(m.Label) {
			out = append(out, m)
		}
	}
	return out
}

// workloadParams holds the per-matrix parameterization mirroring the
// paper's Table II "best (np, k)" columns, scaled to the synthetic sizes.
type workloadParams struct {
	K       int       // block size for the randomized + deterministic runs
	NP      int       // virtual ranks
	Tols    []float64 // the τ column of Table II for this matrix
	EstIter int       // u for eq (24) when no LU_CRTP reference run exists
}

// paramsFor mirrors the Table II parameter choices, scaled down: the
// paper used k ∈ {32..512} and np ∈ {128..4096} at matrix sizes 12k–3.5M;
// the synthetic analogs are ~50–200× smaller, so k and np shrink
// accordingly while keeping the paper's relative ordering (larger k for
// the larger circuit/economic problems).
func paramsFor(label string, scale gen.Scale) workloadParams {
	mult := 1
	if scale == gen.Medium {
		mult = 2
	} else if scale == gen.Large {
		mult = 4
	}
	switch label {
	case "M1":
		return workloadParams{K: 8 * mult, NP: 4 * mult, Tols: []float64{1e-1, 1e-2, 1e-3}, EstIter: 10}
	case "M2":
		return workloadParams{K: 8 * mult, NP: 8 * mult, Tols: []float64{1e-1, 1e-2, 1e-3, 1e-4}, EstIter: 12}
	case "M3":
		return workloadParams{K: 16 * mult, NP: 8 * mult, Tols: []float64{1e-1, 1e-2, 1e-3}, EstIter: 10}
	case "M4":
		return workloadParams{K: 16 * mult, NP: 8 * mult, Tols: []float64{1e-1, 1e-2, 1e-3}, EstIter: 10}
	case "M5":
		return workloadParams{K: 16 * mult, NP: 8 * mult, Tols: []float64{1e-1, 1e-2, 1e-3, 1e-4}, EstIter: 12}
	case "M6":
		return workloadParams{K: 16 * mult, NP: 16 * mult, Tols: []float64{1e-3, 1e-4}, EstIter: 8}
	}
	return workloadParams{K: 8, NP: 4, Tols: []float64{1e-1, 1e-2}, EstIter: 10}
}

// Table1Row is one row of the Table I inventory.
type Table1Row struct {
	Label, Name, Description string
	Rows, Cols, NNZ          int
}

// RunTable1 prints the test-matrix inventory (Table I) for the generated
// analogs and returns the rows.
func RunTable1(cfg Config) []Table1Row {
	w := cfg.out()
	fmt.Fprintf(w, "Table I: test matrices (synthetic analogs of the SuiteSparse set)\n")
	fmt.Fprintf(w, "%-6s %-18s %9s %10s  %s\n", "label", "matrix name", "size", "nnz", "description")
	var rows []Table1Row
	for _, m := range cfg.tableIWorkloads() {
		r, c := m.A.Dims()
		row := Table1Row{Label: m.Label, Name: m.Name, Description: m.Description, Rows: r, Cols: c, NNZ: m.A.NNZ()}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-6s %-18s %9d %10d  %s\n", row.Label, row.Name, r, row.NNZ, row.Description)
	}
	return rows
}

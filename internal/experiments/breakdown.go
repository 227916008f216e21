package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sparselr/internal/dist"
)

// tracedDistConfig returns the default cost-model config with a fresh
// event-trace collector attached, for runs that need the compute/comm
// split or a Chrome-trace export.
func tracedDistConfig() (*dist.Config, *dist.Trace) {
	tr := dist.NewTrace()
	cfg := dist.DefaultConfig()
	cfg.Tracer = tr
	return &cfg, tr
}

// traceBreakdownLine renders one run's compute/comm/wait split for the
// rank that bounds the makespan, read from the runtime's counters, plus
// the recorded trace's critical-path dominant contributors.
func traceBreakdownLine(np int, res *dist.Result, tr *dist.Trace) string {
	s := res.Ranks[res.MakespanRank()]
	if s.Time == 0 {
		return fmt.Sprintf("    np=%-4d breakdown: empty trace", np)
	}
	cp := tr.CriticalPath()
	pct := func(v float64) float64 { return 100 * v / s.Time }
	return fmt.Sprintf("    np=%-4d breakdown rank %d: compute %.1f%% comm %.1f%% wait %.1f%% of %.3g s | critical path rank %d: %s (%d rank switches)",
		np, s.Rank, pct(s.ComputeTime), pct(s.LatencyTime+s.BandwidthTime), pct(s.WaitTime), s.Time,
		cp.MakespanRank, topPathContributors(cp, 2), cp.Switches)
}

// topPathContributors names the n largest critical-path time sinks.
func topPathContributors(cp *dist.CriticalPath, n int) string {
	names := make([]string, 0, len(cp.ByName))
	for name := range cp.ByName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if cp.ByName[names[i]] != cp.ByName[names[j]] {
			return cp.ByName[names[i]] > cp.ByName[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	out := ""
	for i, name := range names {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s %.0f%%", name, 100*cp.ByName[name]/cp.Makespan)
	}
	if out == "" {
		out = "-"
	}
	return out
}

// writeTraceFile exports a run's Chrome trace_event JSON into dir,
// creating it if needed. Errors are reported on w but never abort an
// experiment sweep.
func writeTraceFile(w io.Writer, dir, name string, tr *dist.Trace) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(w, "    trace export failed: %v\n", err)
		return
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(w, "    trace export failed: %v\n", err)
		return
	}
	defer f.Close()
	if err := tr.WriteChromeTrace(f); err != nil {
		fmt.Fprintf(w, "    trace export failed: %v\n", err)
		return
	}
	fmt.Fprintf(w, "    trace written: %s (%d events)\n", path, tr.Len())
}

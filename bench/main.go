// Command bench is the repository's seeded end-to-end benchmark. It
// drives the fixed-precision solvers through core.Approximate and the
// lowrankd daemon, as a child process over HTTP, on four workloads
// (randomized, deterministic, skeleton, serve); it checks every output,
// prints each metric as "name value unit", and ends with one JSON line:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics and writes a Chrome
// trace. BENCHMARK.json at the repository root declares both sets, and
// the harness reads the names and units it reports from there.
// Build and run it from the repository root with bench/bench.sh:
//
//	bash bench/bench.sh -workload randomized -seed 1 -seconds 20 -trace 0
//	bash bench/bench.sh compare -a parent.jsonl -b change.jsonl
//
// bench/README.md describes the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // measurement window
	trace    bool
	buildDir string // holds the lowrankd binary; traces are written here
	decl     *benchmarkFile
}

// morePasses reports whether a run that has measured the given passes
// since start should begin another: always up to the minimum (one, or
// two for a traced run, which times both ways), then while the next pass
// is expected to end within cfg.seconds.
func (cfg runConfig) morePasses(done int, start time.Time, walls []float64) bool {
	if done < 1 || cfg.trace && done < 2 {
		return true
	}
	return time.Since(start).Seconds()+median(walls) <= cfg.seconds
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: randomized | deterministic | skeleton | serve")
	seed := fs.Int64("seed", 1, "workload seed: inputs, solver seeds and request mix")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds (whole passes)")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics and writes a Chrome trace; 0 the end-to-end metrics")
	buildDir := fs.String("builddir", ".bench_build", "directory with the lowrankd binary, where traces are written")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload %v, -trace 0|1 and -seconds >= 0\n", workloadNames)
		fs.Usage()
		return 2
	}
	decl, err := loadBenchmark("BENCHMARK.json") // the harness runs from the repository root
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, buildDir: *buildDir, decl: decl}
	m, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := report(stdout, cfg, m); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if m.failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig) (*measurement, error) {
	if cfg.trace {
		if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
			return nil, err
		}
	}
	if cfg.workload == "serve" {
		return runServe(cfg)
	}
	return runSolver(cfg, solverWorkloads[cfg.workload])
}

// measurement is what one run observed.
type measurement struct {
	values            map[string]float64 // every declared metric, by name
	infos             []string           // extra "name value unit" lines
	mu                sync.Mutex
	attempted, failed int
}

// newMeasurement starts with every declared per-layer metric at 0: a
// layer the workload does not run did no work.
func newMeasurement(decl *benchmarkFile) *measurement {
	m := &measurement{values: map[string]float64{}}
	for _, d := range decl.PerLayer {
		m.values[d.Name] = 0
	}
	return m
}

func (m *measurement) attempt() {
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
}

// fail counts a wrong or failed operation and says why on stderr.
func (m *measurement) fail(format string, args ...any) {
	m.mu.Lock()
	m.failed++
	m.mu.Unlock()
	fmt.Fprintf(os.Stderr, "bench: FAIL "+format+"\n", args...)
}

// info records a diagnostic value that is printed but not declared.
func (m *measurement) info(name string, v float64, unit string) {
	m.infos = append(m.infos, name+" "+formatValue(v)+" "+unit)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the declared metrics the run reports (the end-to-end
// set untraced, the per-layer set traced) as "name value unit", then the
// diagnostics, then the result line. A measured value BENCHMARK.json
// does not declare, such as the virtual time of a kernel added to dist
// later, is not reported.
func report(w io.Writer, cfg runConfig, m *measurement) error {
	declared := cfg.decl.EndToEnd
	if cfg.trace {
		declared = cfg.decl.PerLayer
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, ok := m.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("run did not measure %s (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(w, "%s %s %s\n", d.Name, formatValue(v), d.Unit)
	}
	for _, line := range m.infos {
		fmt.Fprintln(w, line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

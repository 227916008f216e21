package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"sparselr/internal/gen"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the spread the acceptance check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// loadDecl reads BENCHMARK.json from the repository root.
func loadDecl(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	decl := loadDecl(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(decl.EndToEnd), decl.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad metric declaration %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	var largest float64
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	for _, d := range decl.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if i := slices.IndexFunc(decl.EndToEnd, func(d metricDef) bool { return d.Name == "setup_s" }); i < 0 {
		t.Error("no setup_s end-to-end metric")
	} else if d := decl.EndToEnd[i]; d.Unit != "s" || d.Better != "lower" || d.Bound != largest {
		t.Errorf("setup_s must be in s, lower-better, with the largest bound: %+v", d)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json's shape and that it names the
// workloads the harness runs; TestWorkloadSmoke checks the metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	b := loadDecl(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) || len(names) < 2 || len(names) > 8 {
		t.Errorf("workloads %v, harness runs %v (want 2-8)", names, workloadNames)
	}
	if n, m := len(b.EndToEnd), len(b.PerLayer); n < 1 || n > 16 || m < 1 || m > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1-16 and 1-128", n, m)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestSeedOneMatchesTableI(t *testing.T) {
	for _, s := range []gen.Scale{gen.Small, gen.Medium} {
		one, two := tableI(s, 1), tableI(s, 2)
		for _, pm := range gen.TableI(s) {
			a, b := one[pm.Label], pm.A
			if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) ||
				!slices.Equal(a.ColIdx, b.ColIdx) || !slices.Equal(a.Val, b.Val) {
				t.Errorf("%s seed 1 at %v differs from gen.TableI", pm.Label, s)
			}
			if slices.Equal(two[pm.Label].Val, b.Val) {
				t.Errorf("%s seed 2 at %v equals seed 1", pm.Label, s)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "y", Unit: "1/s", Better: "higher", Bound: 0.1}
	// Inputs differ from seed to seed far more than the bound; pairing by
	// seed takes that out.
	base := []float64{100, 140, 70, 120, 90, 160, 60, 110, 130, 80}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noise := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1, 1}
	noisy := make([]float64, len(base))
	for i, x := range base {
		noisy[i] = x * noise[i]
	}
	wobble := slices.Clone(base)
	wobble[3] *= 1.01
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, base, base, "unchanged"},
		{lower, base, scaled(1.05), "unchanged"},
		{lower, base, wobble, "unchanged"},
		{lower, base, scaled(0.98), "improved"},
		{lower, base, scaled(1.2), "regressed"},
		{lower, base, noisy, "unresolved"},
		{lower, noisy, scaled(0.5), "improved"},
		{lower, base[:9], scaled(0.8)[:9], "unresolved"},
		{higher, base, scaled(1.2), "improved"},
		{higher, base, scaled(0.8), "regressed"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s better, %v, %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestPairBySeed(t *testing.T) {
	rec := func(seed int64, v float64) runRecord {
		return runRecord{Seed: seed, Result: result{Metrics: map[string]metricValue{"x": {v, "s"}}}}
	}
	as := []runRecord{rec(1, 10), rec(2, 20), rec(3, 30), rec(1, 11)}
	bs := []runRecord{rec(3, 31), rec(1, 12), rec(4, 40), rec(1, 13)}
	pa, pb := pairBySeed(as, bs)
	va, vb := metricPairs(pa, pb, "x")
	if !slices.Equal(va, []float64{10, 30, 11}) || !slices.Equal(vb, []float64{12, 31, 13}) {
		t.Errorf("paired %v with %v", va, vb)
	}
}

func TestCompareRows(t *testing.T) {
	decl := &benchmarkFile{EndToEnd: []metricDef{{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w", Why: "test"})
	runs := func(v float64, failed int) map[string][]runRecord {
		var rs []runRecord
		for i := 0; i < minPairs; i++ {
			rs = append(rs, runRecord{Workload: "w", Seed: int64(i + 1), Result: result{Correct: failed == 0, Attempted: 5, Failed: failed,
				Metrics: map[string]metricValue{"pass_s": {v + float64(i)*0.01, "s"}}}})
		}
		return map[string][]runRecord{"w": rs}
	}
	var out bytes.Buffer
	if bad := compare(&out, decl, runs(10, 0), runs(10, 0)); bad || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same runs: bad=%v\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compare(&out, decl, runs(10, 0), runs(13, 0)); !bad || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower: bad=%v\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compare(&out, decl, runs(10, 0), runs(5, 1)); !bad || strings.Contains(out.String(), "improved") {
		t.Errorf("faster with failures must not count as a gain: bad=%v\n%s", bad, out.String())
	}
}

// TestWorkloadSmoke runs each workload for one untraced and one traced
// pass and checks that it is correct, measures exactly the metrics
// BENCHMARK.json declares (every end-to-end metric above 0 on every
// workload, every per-layer metric above 0 on some workload), and writes
// a loadable Chrome trace.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	decl := loadDecl(t)
	declared := map[string]bool{}
	for _, d := range append(slices.Clone(decl.EndToEnd), decl.PerLayer...) {
		declared[d.Name] = true
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "lowrankd"), "sparselr/cmd/lowrankd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lowrankd: %v\n%s", err, out)
	}
	// Tracing may cost nothing measurable, and a healthy daemon rejects
	// nothing.
	used := map[string]bool{"trace_overhead_frac": true, "serve.queue_rejections": true}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 1, seconds: 0, trace: true, buildDir: dir, decl: decl}
			m, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Fatalf("%d of %d operations failed", m.failed, m.attempted)
			}
			for name, v := range m.values {
				if !declared[name] {
					t.Errorf("measured %s = %v, which BENCHMARK.json does not declare", name, v)
				}
				if v > 0 {
					used[name] = true
				}
			}
			for _, d := range decl.EndToEnd {
				if m.values[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.values[d.Name])
				}
			}
			for _, traced := range []bool{false, true} {
				cfg.trace = traced
				var out bytes.Buffer
				if err := report(&out, cfg, m); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				want := len(decl.EndToEnd)
				if traced {
					want = len(decl.PerLayer)
				}
				if !res.Correct || len(res.Metrics) != want {
					t.Errorf("trace=%v: correct=%v with %d metrics, want %d", traced, res.Correct, len(res.Metrics), want)
				}
			}
			data, err := os.ReadFile(tracePath(cfg))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace %s: %v, %d events", tracePath(cfg), err, len(tr.TraceEvents))
			}
		})
	}
	if t.Failed() {
		return
	}
	for _, d := range decl.PerLayer {
		if !used[d.Name] {
			t.Errorf("per-layer metric %s reads 0 on every workload", d.Name)
		}
	}
}

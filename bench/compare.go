package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// minPairs is the fewest parent/change run pairs compare judges.
const minPairs = 10

// runRecord is one JSONL line of run.sh: a run's settings and its
// result line.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// loadRuns reads the untraced runs of a run.sh JSONL file by workload,
// in file order.
func loadRuns(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	a := fs.String("a", "", "JSONL runs of the parent")
	b := fs.String("b", "", "JSONL runs of the change")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench compare: need -a parent.jsonl -b change.jsonl")
		return 2
	}
	decl, err := loadBenchmark(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	ra, err := loadRuns(*a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	rb, err := loadRuns(*b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	if compare(w, decl, ra, rb) {
		return 1
	}
	return 0
}

// compare prints one row per workload marking each end-to-end metric
// improved, regressed, unchanged or unresolved, then the numbers behind
// each mark. It reports whether any metric regressed or the change
// failed operations the parent did not.
func compare(w io.Writer, decl *benchmarkFile, ra, rb map[string][]runRecord) bool {
	bad := false
	fmt.Fprintf(w, "%-14s %5s %9s", "workload", "pairs", "failed")
	for _, d := range decl.EndToEnd {
		fmt.Fprintf(w, " %11s", d.Name)
	}
	fmt.Fprintln(w)
	var details []string
	for _, wl := range decl.Workloads {
		as, bs := pairBySeed(ra[wl.Name], rb[wl.Name])
		fa, fb := failedOps(as), failedOps(bs)
		fmt.Fprintf(w, "%-14s %5d %9s", wl.Name, len(as), fmt.Sprintf("%d/%d", fa, fb))
		bad = bad || fb > fa
		for _, d := range decl.EndToEnd {
			va, vb := metricPairs(as, bs, d.Name)
			v := verdict(d, va, vb)
			if v == "improved" && fb > fa {
				v = "unresolved" // a gain does not count when more operations fail
			}
			bad = bad || v == "regressed"
			fmt.Fprintf(w, " %11s", v)
			if len(va) > 0 {
				worse := pairChanges(d, va, vb)
				q1, q3 := quartiles(worse)
				details = append(details, fmt.Sprintf("%s %s: parent median %.4g, change median %.4g; change worse per pair by %+.2f%% [%+.2f%%, %+.2f%%], better in %d/%d, worse in %d; bound %.0f%% → %s",
					wl.Name, d.Name, median(va), median(vb), 100*median(worse), 100*q1, 100*q3,
					countIf(worse, func(x float64) bool { return x < 0 }), len(va),
					countIf(worse, func(x float64) bool { return x > 0 }), 100*d.Bound, v))
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	for _, line := range details {
		fmt.Fprintln(w, line)
	}
	return bad
}

// pairBySeed pairs each parent run with a change run of the same seed,
// in the parent's file order; a seed run more than once on both sides
// pairs its runs in order. Unpaired runs are dropped.
func pairBySeed(as, bs []runRecord) (pa, pb []runRecord) {
	bySeed := map[int64][]runRecord{}
	for _, r := range bs {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	for _, a := range as {
		if q := bySeed[a.Seed]; len(q) > 0 {
			pa, pb = append(pa, a), append(pb, q[0])
			bySeed[a.Seed] = q[1:]
		}
	}
	return pa, pb
}

// pairChanges returns, for each seed pair, the change's value relative to
// the parent's, signed so that positive is worse: 0.05 is 5% worse.
// Pairing by seed takes the inputs' own variation out, so a metric that
// repeats exactly for a seed (allocation, factor size) shows any change
// the code makes.
func pairChanges(d metricDef, a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = (b[i] - a[i]) / math.Abs(a[i])
		if d.Better == "higher" {
			out[i] = -out[i]
		}
	}
	return out
}

// verdict applies the pair rule to one metric on one workload, a and b
// being the parent's and the change's values paired by seed:
//   - unresolved: fewer than minPairs pairs;
//   - improved: the change is better in at least 9/10 of the pairs and
//     its median per-pair gain is larger than the interquartile range of
//     the per-pair changes (their run-to-run spread on the same inputs);
//   - unresolved: that spread is wider than the bound, unless the change
//     is better in every pair;
//   - regressed: the median per-pair change is worse than the bound;
//   - unchanged otherwise.
func verdict(d metricDef, a, b []float64) string {
	n := min(len(a), len(b))
	if n < minPairs {
		return "unresolved"
	}
	worse := pairChanges(d, a[:n], b[:n])
	gap := median(worse)
	q1, q3 := quartiles(worse)
	spread := q3 - q1
	won := countIf(worse, func(x float64) bool { return x < 0 })
	switch {
	case won*10 >= 9*n && -gap > spread:
		return "improved"
	case spread > d.Bound && won < n:
		return "unresolved"
	case gap > d.Bound:
		return "regressed"
	}
	return "unchanged"
}

func countIf(xs []float64, f func(float64) bool) int {
	n := 0
	for _, x := range xs {
		if f(x) {
			n++
		}
	}
	return n
}

// metricPairs returns the metric's values in the paired runs that both
// report it.
func metricPairs(as, bs []runRecord, name string) (va, vb []float64) {
	for i := range as {
		x, okA := as[i].Result.Metrics[name]
		y, okB := bs[i].Result.Metrics[name]
		if okA && okB {
			va, vb = append(va, x.Value), append(vb, y.Value)
		}
	}
	return va, vb
}

func failedOps(runs []runRecord) int {
	n := 0
	for _, r := range runs {
		n += r.Result.Failed
		if !r.Result.Correct && r.Result.Failed == 0 {
			n++
		}
	}
	return n
}

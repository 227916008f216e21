package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// regression bound of an end-to-end metric: the share of the parent's
// median by which it may worsen (per-layer metrics have none).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// benchmarkFile is BENCHMARK.json at the repository root, the one
// declaration of the workloads and metrics: the harness reports the
// metrics it lists, with their units, and compare reads their bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// kernelMetric names the per-kernel virtual time a dist family reports
// in dist.Result ("/" in a kernel name is written "-").
func kernelMetric(family, kernel string) string {
	return "dist." + family + ".kernel." + strings.ReplaceAll(kernel, "/", "-") + "_vs"
}

// median returns the middle of xs (the mean of the two middle values for
// even lengths); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between the closest ranks (0 for none). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads match the ones the acceptance check computes. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[0]
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[len(xs)-1]
}

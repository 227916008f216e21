// Package prom renders metric families in the Prometheus text
// exposition format (version 0.0.4). It is the only code in the module
// that knows that format: lowrankd's and the gateway's /metrics pages
// are each one Registry.
//
// A Registry writes its families in registration order, each as its
// HELP and TYPE lines followed by its samples, even when it has none.
// A labelled family writes its samples sorted by label value. Values
// follow one rule: an integral value below 2^53 in magnitude prints as
// an integer, anything else in the shortest %g form. Label values are
// escaped as the format specifies (\\, \" and \n); every other byte is
// written as is.
//
// Every family locks itself, so recording and rendering may run
// concurrently; a histogram's buckets, sum and count are read under
// one lock. Register every family before the first Write.
package prom

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is an ordered set of metric families.
type Registry struct{ fams []*family }

// family is one metric family: a counter or gauge (one value per
// series), or a histogram or summary (a sum and count per series, and
// a histogram's bucket counts).
type family struct {
	name, help, typ, label string // label is "" for an unlabelled family
	buckets                []float64

	mu     sync.Mutex
	series map[string]*series // by label value
	lvs    []string           // the label values, sorted
}

type series struct {
	v      float64  // the value, or the sum of observations
	count  uint64   // observations
	counts []uint64 // per bucket, made cumulative when written
}

func (r *Registry) add(name, help, typ, label string, buckets []float64) *family {
	f := &family{name: name, help: help, typ: typ, label: label, buckets: buckets, series: map[string]*series{}}
	if label == "" {
		f.slot("") // an unlabelled family always has its one sample
	}
	r.fams = append(r.fams, f)
	return f
}

// Write renders every family in registration order.
func (r *Registry) Write(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.fams {
		f.write(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// slot returns lv's series, creating it empty; f.mu must be held
// unless f is still being registered.
func (f *family) slot(lv string) *series {
	s := f.series[lv]
	if s == nil {
		s = &series{counts: make([]uint64, len(f.buckets))}
		f.series[lv] = s
		i := sort.SearchStrings(f.lvs, lv)
		f.lvs = slices.Insert(f.lvs, i, lv)
	}
	return s
}

func (f *family) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, lv := range f.lvs {
		s := f.series[lv]
		if f.typ == "counter" || f.typ == "gauge" {
			f.sample(b, "", lv, "", s.v)
			continue
		}
		var cum uint64
		for i, le := range f.buckets {
			cum += s.counts[i]
			f.sample(b, "_bucket", lv, `,le="`+strconv.FormatFloat(le, 'g', -1, 64)+`"`, float64(cum))
		}
		if f.typ == "histogram" {
			f.sample(b, "_bucket", lv, `,le="+Inf"`, float64(s.count))
		}
		f.sample(b, "_sum", lv, "", s.v)
		f.sample(b, "_count", lv, "", float64(s.count))
	}
}

// sample writes one sample line: name+suffix, then, when the family
// has a label, its pair with value lv and any extra pairs, then x.
func (f *family) sample(b *bytes.Buffer, suffix, lv, extra string, x float64) {
	b.WriteString(f.name + suffix)
	if f.label != "" {
		fmt.Fprintf(b, `{%s="%s"%s}`, f.label, labelEscaper.Replace(lv), extra)
	}
	fmt.Fprintf(b, " %s\n", formatNumber(x))
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// formatNumber prints x as an integer when it is integral and below
// 2^53 in magnitude, where float64 holds every integer exactly, and in
// the shortest %g form otherwise.
func formatNumber(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// Vec is a counter or gauge with one label.
type Vec struct{ f *family }

// CounterVec registers a counter with one label.
func (r *Registry) CounterVec(name, help, label string) *Vec {
	return &Vec{r.add(name, help, "counter", label, nil)}
}

// GaugeVec registers a gauge with one label.
func (r *Registry) GaugeVec(name, help, label string) *Vec {
	return &Vec{r.add(name, help, "gauge", label, nil)}
}

// Inc adds one to the sample with label value lv.
func (v *Vec) Inc(lv string) { v.Add(lv, 1) }

// IncInt is Inc for an integer label value, which it formats without
// allocating once that value has been recorded.
func (v *Vec) IncInt(lv int) {
	var buf [20]byte
	key := strconv.AppendInt(buf[:0], int64(lv), 10)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s := v.f.series[string(key)]; s != nil {
		s.v++
		return
	}
	v.f.slot(string(key)).v++
}

// Add adds d to the sample with label value lv.
func (v *Vec) Add(lv string, d float64) {
	v.f.mu.Lock()
	v.f.slot(lv).v += d
	v.f.mu.Unlock()
}

// Set replaces the sample with label value lv.
func (v *Vec) Set(lv string, x float64) {
	v.f.mu.Lock()
	v.f.slot(lv).v = x
	v.f.mu.Unlock()
}

// Load returns the sample with label value lv (0 if never recorded).
func (v *Vec) Load(lv string) float64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s := v.f.series[lv]; s != nil {
		return s.v
	}
	return 0
}

// Value is an unlabelled counter or gauge: a Vec whose one sample has
// the empty label value.
type Value Vec

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Value {
	return &Value{r.add(name, help, "counter", "", nil)}
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Value {
	return &Value{r.add(name, help, "gauge", "", nil)}
}

// Inc adds one.
func (v *Value) Inc() { (*Vec)(v).Add("", 1) }

// Add adds d.
func (v *Value) Add(d float64) { (*Vec)(v).Add("", d) }

// Set replaces the value, for a sample taken at render time.
func (v *Value) Set(x float64) { (*Vec)(v).Set("", x) }

// Load returns the value.
func (v *Value) Load() float64 { return (*Vec)(v).Load("") }

// Histogram is a fixed-bucket histogram with one label.
type Histogram struct{ f *family }

// Histogram registers a histogram with one label and the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help, label string, buckets []float64) *Histogram {
	return &Histogram{r.add(name, help, "histogram", label, buckets)}
}

// Observe records x in the series with label value lv.
func (h *Histogram) Observe(lv string, x float64) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	s := h.f.slot(lv)
	for i, le := range h.f.buckets {
		if x <= le {
			s.counts[i]++
			break
		}
	}
	s.v += x
	s.count++
}

// Summary is an unlabelled sum and count of observations: a Histogram
// with no buckets and the empty label value.
type Summary Histogram

// Summary registers a sum/count summary.
func (r *Registry) Summary(name, help string) *Summary {
	return &Summary{r.add(name, help, "summary", "", nil)}
}

// Observe records one observation x.
func (s *Summary) Observe(x float64) { (*Histogram)(s).Observe("", x) }

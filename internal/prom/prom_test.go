package prom

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSamplesFollowTheirFamily: every sample line comes after its own
// family's HELP and TYPE lines and before the next family's, families
// come in registration order, and each family writes its header even
// with no samples.
func TestSamplesFollowTheirFamily(t *testing.T) {
	var r Registry
	c := r.Counter("a_total", "A.")
	v := r.CounterVec("b_total", "B.", "k")
	r.GaugeVec("c", "C, never recorded.", "k")
	h := r.Histogram("d_seconds", "D.", "k", []float64{1, 2})
	s := r.Summary("e_seconds", "E.")
	g := r.Gauge("f", "F.")
	c.Inc()
	v.Inc("y")
	v.Inc("x")
	h.Observe("x", 1.5)
	s.Observe(3)
	g.Set(-2)

	var fams []string
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(render(t, &r), "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, _, _ = strings.Cut(name, " ")
			fams = append(fams, family)
			continue
		}
		if typ, ok := strings.CutPrefix(line, "# TYPE "+family+" "); ok {
			if typ == "" {
				t.Errorf("family %s has an empty TYPE", family)
			}
			continue
		}
		if !strings.HasPrefix(line, family) {
			t.Errorf("sample %q is not under its family (current %q)", line, family)
		}
	}
	want := []string{"a_total", "b_total", "c", "d_seconds", "e_seconds", "f"}
	if strings.Join(fams, ",") != strings.Join(want, ",") {
		t.Errorf("families %v, want %v in registration order", fams, want)
	}
	page := render(t, &r)
	for _, line := range []string{
		"a_total 1\n",
		"b_total{k=\"x\"} 1\nb_total{k=\"y\"} 1\n",
		"# TYPE c gauge\n# HELP d_seconds",
		"e_seconds_sum 3\ne_seconds_count 1\n",
		"f -2\n",
	} {
		if !strings.Contains(page, line) {
			t.Errorf("page lacks %q:\n%s", line, page)
		}
	}
}

// TestHistogramCumulative: bucket counts are cumulative, and the +Inf
// bucket equals _count.
func TestHistogramCumulative(t *testing.T) {
	var r Registry
	h := r.Histogram("h", "H.", "m", []float64{0.1, 1, 10})
	for _, x := range []float64{0.05, 0.1, 0.5, 5, 5, 50} {
		h.Observe("a", x)
	}
	want := `h_bucket{m="a",le="0.1"} 2
h_bucket{m="a",le="1"} 3
h_bucket{m="a",le="10"} 5
h_bucket{m="a",le="+Inf"} 6
h_sum{m="a"} 60.65
h_count{m="a"} 6
`
	if got := render(t, &r); !strings.HasSuffix(got, want) {
		t.Errorf("histogram page:\n%s\nwant suffix:\n%s", got, want)
	}
}

// TestNumberFormat: integral values below 2^53 print as integers,
// everything else in the shortest %g form.
func TestNumberFormat(t *testing.T) {
	for x, want := range map[float64]string{
		999999:  "999999",
		1e6:     "1000000",
		1 << 53: "9.007199254740992e+15",
		0.25:    "0.25",
		-3:      "-3",
	} {
		var r Registry
		r.Gauge("g", "G.").Set(x)
		if got := render(t, &r); !strings.HasSuffix(got, "\ng "+want+"\n") {
			t.Errorf("%v printed as %q, want %q", x, got, want)
		}
	}
}

// TestLabelEscaping: backslash, double quote and newline are escaped
// as the exposition format specifies; a tab, which the format does not
// escape, is written as is (Go's %q would write \t).
func TestLabelEscaping(t *testing.T) {
	var r Registry
	r.CounterVec("c_total", "C.", "v").Inc("a\\b\"c\nd\te")
	want := "c_total{v=\"a\\\\b\\\"c\\nd\te\"} 1\n"
	if got := render(t, &r); !strings.HasSuffix(got, want) {
		t.Errorf("escaped sample:\n%q\nwant suffix %q", got, want)
	}
}

// TestConcurrentRecordAndWrite: recording from many goroutines while
// another renders loses no update (run under -race for the locking).
func TestConcurrentRecordAndWrite(t *testing.T) {
	const workers, per = 8, 1000
	var r Registry
	c := r.Counter("c_total", "C.")
	v := r.CounterVec("v_total", "V.", "code")
	h := r.Histogram("h_seconds", "H.", "m", []float64{1})
	stop := make(chan struct{})
	rendered := make(chan struct{})
	go func() {
		defer close(rendered)
		for {
			select {
			case <-stop:
				return
			default:
				var b bytes.Buffer
				if err := r.Write(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				v.IncInt(200 + i%2)
				h.Observe("x", 0.5)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rendered
	if got := c.Load(); got != workers*per {
		t.Errorf("counter %v, want %d", got, workers*per)
	}
	if a, b := v.Load("200"), v.Load("201"); a != workers*per/2 || b != workers*per/2 {
		t.Errorf("labelled counter %v/%v, want %d each", a, b, workers*per/2)
	}
	page := render(t, &r)
	n := strconv.Itoa(workers * per)
	for _, line := range []string{
		`h_seconds_bucket{m="x",le="1"} ` + n + "\n",
		`h_seconds_bucket{m="x",le="+Inf"} ` + n + "\n",
		`h_seconds_count{m="x"} ` + n + "\n",
	} {
		if !strings.Contains(page, line) {
			t.Errorf("page lacks %q", line)
		}
	}
}

package fleet

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestWritePromGolden pins the gateway /metrics page byte for byte,
// with every family recorded and with none.
func TestWritePromGolden(t *testing.T) {
	full := NewMetrics()
	full.Forwarded("http://a:9101", 15*time.Millisecond)
	full.Forwarded("http://a:9101", 15*time.Millisecond)
	full.Forwarded("http://b:9102", time.Second)
	full.Errors.Inc("http://b:9102")
	full.Errors.Inc("http://c:9103")
	full.Reroutes.Inc()
	full.Spillover.Inc()
	full.Spillover.Inc()
	full.RingChange(false)
	full.RingChange(true)
	full.Unroutable.Inc()
	full.RetryPasses.Inc()
	full.RetryPasses.Inc()
	full.RetryExhausted.Inc()
	full.ReplicaReads.Inc()
	for _, tc := range []struct {
		golden string
		m      *Metrics
		g      Gauges
	}{
		{"testdata/metrics_empty.prom", NewMetrics(), Gauges{}},
		{"testdata/metrics_full.prom", full, Gauges{
			RingSize: 2,
			Backends: map[string]bool{"http://a:9101": true, "http://b:9102": false, "http://c:9103": true},
			Routes:   5,
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := tc.m.WriteProm(&got, tc.g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: page differs from the golden:\n%s", tc.golden, got.Bytes())
		}
	}
}

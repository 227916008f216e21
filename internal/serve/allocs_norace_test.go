//go:build !race

package serve

import (
	"testing"
	"time"

	"sparselr/internal/core"
)

// TestRecordingAllocs: recording on the request path allocates nothing
// once a label value has been seen. The race detector's
// instrumentation allocates, so the check runs only without it.
func TestRecordingAllocs(t *testing.T) {
	m := NewMetrics()
	recordEverySeries(m)
	for name, record := range map[string]func(){
		"HTTPRequests.IncInt(200)": func() { m.HTTPRequests.IncInt(200) },
		"CacheHits.Inc()":          func() { m.CacheHits.Inc() },
		`Jobs.Inc("done")`:         func() { m.Jobs.Inc("done") },
		`SolveDone("RandQB_EI")`:   func() { m.SolveDone("RandQB_EI", 3*time.Millisecond, 0.5) },
	} {
		if n := testing.AllocsPerRun(100, record); n != 0 {
			t.Errorf("%s: %v allocs per record, want 0", name, n)
		}
	}
}

// TestFactorAccountingAllocs: on a real QB result, listing the factor
// names allocates only the returned slice and charging the cache cost
// allocates nothing.
func TestFactorAccountingAllocs(t *testing.T) {
	ap := solveSmall(t, "M3", core.RandQBEI)
	if n := testing.AllocsPerRun(100, func() { factorNames(ap) }); n > 1 {
		t.Errorf("factorNames: %v allocs per call, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { approxBytes(ap) }); n != 0 {
		t.Errorf("approxBytes: %v allocs per call, want 0", n)
	}
}

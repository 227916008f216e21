package dist

import "testing"

// Benchmarks comparing the untraced (nil Tracer) and traced runtime, fed
// into BENCH_dist.json by verify.sh for cross-PR overhead tracking.

// discardTracer measures pure event-emission cost without Trace's
// collection mutex.
type discardTracer struct{}

func (discardTracer) TraceEvent(Event) {}

// collectiveRound runs 8 rounds of an allreduce (Reduce + Bcast), a
// Bcast and an empty Allgather on 4 ranks.
func collectiveRound(b *testing.B, conf Config) {
	payload := make([]float64, 128)
	mustRun(b, 4, conf, func(c *Comm) {
		for rep := 0; rep < 8; rep++ {
			allreduceSum(c, payload)
			var d interface{}
			if c.Rank() == 0 {
				d = payload
			}
			c.Bcast(0, d, 8*len(payload))
			c.Allgather(nil, 0)
		}
	})
}

func benchCollectives(b *testing.B, conf Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		collectiveRound(b, conf)
	}
}

func BenchmarkDistCollectivesUntraced(b *testing.B) {
	benchCollectives(b, cfg())
}

func BenchmarkDistCollectivesDiscardTracer(b *testing.B) {
	conf := cfg()
	conf.Tracer = discardTracer{}
	benchCollectives(b, conf)
}

func BenchmarkDistCollectivesTraced(b *testing.B) {
	conf := cfg()
	tr := NewTrace()
	conf.Tracer = tr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		collectiveRound(b, conf)
		tr.Reset()
	}
}

func BenchmarkDistComputeUntraced(b *testing.B) {
	mustRun(b, 1, cfg(), func(c *Comm) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Compute(100, "k")
		}
	})
}

func BenchmarkDistComputeTraced(b *testing.B) {
	conf := cfg()
	conf.Tracer = discardTracer{}
	mustRun(b, 1, conf, func(c *Comm) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Compute(100, "k")
		}
	})
}

func BenchmarkDistChromeExport(b *testing.B) {
	tr := NewTrace()
	conf := cfg()
	conf.Tracer = tr
	collectiveRound(b, conf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteChromeTrace(discardWriter{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

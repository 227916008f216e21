package dist

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// traceProg is a small program exercising compute, p2p and every
// collective, with rank-dependent imbalance so waits actually occur.
func traceProg(c *Comm) {
	c.Annotate("start")
	c.Compute(float64(c.Rank()+1)*1e5, "gemm")
	allreduceSum(c, []float64{1, 2, 3})
	if c.Rank() == 0 {
		sendFloats(c, c.Size()-1, 4, []float64{9, 8})
	}
	if c.Rank() == c.Size()-1 {
		recvFloats(c, 0, 4)
	}
	c.Allgather([]float64{float64(c.Rank())}, 8)
	c.Compute(2e5, "schur")
	var d interface{}
	if c.Rank() == 1 {
		d = []float64{1}
	}
	c.Bcast(1, d, 8)
	c.Allgather(nil, 0)
}

func tracedRun(t *testing.T, p int) (*Result, *Trace) {
	t.Helper()
	tr := NewTrace()
	conf := cfg()
	conf.Tracer = tr
	res := mustRun(t, p, conf, traceProg)
	return res, tr
}

func TestTraceDeterministicAcrossRuns(t *testing.T) {
	_, a := tracedRun(t, 5)
	_, b := tracedRun(t, 5)
	if !reflect.DeepEqual(a.Ranks(), b.Ranks()) {
		t.Fatalf("rank sets differ: %v vs %v", a.Ranks(), b.Ranks())
	}
	for _, r := range a.Ranks() {
		if !reflect.DeepEqual(a.Events(r), b.Events(r)) {
			t.Fatalf("rank %d trace differs across identical runs", r)
		}
	}
}

func TestTracingDoesNotPerturbClocks(t *testing.T) {
	plain := mustRun(t, 5, cfg(), traceProg)
	traced, _ := tracedRun(t, 5)
	for i := range plain.Ranks {
		if plain.Ranks[i].Time != traced.Ranks[i].Time {
			t.Fatalf("rank %d clock changed under tracing: %v vs %v",
				i, plain.Ranks[i].Time, traced.Ranks[i].Time)
		}
	}
}

func TestStatsReconcileWithClock(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		res := mustRun(t, p, cfg(), traceProg)
		for _, s := range res.Ranks {
			sum := s.ComputeTime + s.LatencyTime + s.BandwidthTime + s.WaitTime
			if math.Abs(sum-s.Time) > 1e-9 {
				t.Fatalf("p=%d rank %d: compute %v + latency %v + bandwidth %v + wait %v = %v != clock %v",
					p, s.Rank, s.ComputeTime, s.LatencyTime, s.BandwidthTime, s.WaitTime, sum, s.Time)
			}
			comm := s.LatencyTime + s.BandwidthTime + s.WaitTime
			if math.Abs(comm-s.CommTime) > 1e-9 {
				t.Fatalf("p=%d rank %d: comm split %v != CommTime %v", p, s.Rank, comm, s.CommTime)
			}
		}
	}
}

func TestTraceTimelineContiguous(t *testing.T) {
	_, tr := tracedRun(t, 6)
	for _, r := range tr.Ranks() {
		prevEnd := 0.0
		for i, e := range tr.spans(r) {
			if math.Abs(e.Start-prevEnd) > 1e-12 {
				t.Fatalf("rank %d event %d (%s %q): start %v != previous end %v",
					r, i, e.Kind, e.Name, e.Start, prevEnd)
			}
			if e.End < e.Start {
				t.Fatalf("rank %d event %d: negative span [%v, %v]", r, i, e.Start, e.End)
			}
			prevEnd = e.End
		}
	}
}

// The recorded spans reconcile with the runtime's counters: compute
// spans sum to ComputeTime, receive waits to WaitTime, the rest of the
// send/recv spans to the α and β time, and the last span ends at the
// rank's clock.
func TestTraceBreakdownMatchesStats(t *testing.T) {
	res, tr := tracedRun(t, 6)
	if len(tr.Ranks()) != 6 {
		t.Fatalf("expected 6 traced ranks, got %d", len(tr.Ranks()))
	}
	for _, r := range tr.Ranks() {
		var compute, comm, wait, end float64
		for _, e := range tr.spans(r) {
			switch e.Kind {
			case EvCompute:
				compute += e.Duration()
			case EvSend:
				comm += e.Duration()
			case EvRecv:
				comm += e.Duration() - e.Waited
				wait += e.Waited
			}
			end = max(end, e.End)
		}
		s := res.Ranks[r]
		if math.Abs(compute-s.ComputeTime) > 1e-9 {
			t.Fatalf("rank %d: trace compute %v != stats %v", r, compute, s.ComputeTime)
		}
		if math.Abs(wait-s.WaitTime) > 1e-9 {
			t.Fatalf("rank %d: trace wait %v != stats %v", r, wait, s.WaitTime)
		}
		if math.Abs(comm-(s.LatencyTime+s.BandwidthTime)) > 1e-9 {
			t.Fatalf("rank %d: trace comm %v != stats %v", r, comm, s.LatencyTime+s.BandwidthTime)
		}
		if math.Abs(end-s.Time) > 1e-12 {
			t.Fatalf("rank %d: trace end %v != clock %v", r, end, s.Time)
		}
	}
}

func TestCollectiveHistogram(t *testing.T) {
	p := 4
	res := mustRun(t, p, cfg(), func(c *Comm) {
		var d interface{}
		if c.Rank() == 0 {
			d = []float64{1}
		}
		c.Bcast(0, d, 8)
		c.Allgather([]float64{1}, 8)
		c.Reduce(0, []float64{1}, 8, sumFloats)
	})
	totalBcastMsgs := 0
	for _, s := range res.Ranks {
		for _, kind := range []string{"Bcast", "Allgather", "Reduce"} {
			if s.Collectives[kind].Calls != 1 {
				t.Fatalf("rank %d: %s calls = %d, want 1", s.Rank, kind, s.Collectives[kind].Calls)
			}
			if s.Collectives[kind].Time < 0 {
				t.Fatalf("rank %d: negative %s time", s.Rank, kind)
			}
		}
		// The nested Gather/Bcast inside Allgather must not surface as
		// their own kinds.
		if _, ok := s.Collectives["Gather"]; ok {
			t.Fatalf("rank %d: nested Gather escaped Allgather attribution", s.Rank)
		}
		totalBcastMsgs += s.Collectives["Bcast"].Msgs
	}
	// A binomial broadcast moves p−1 messages; each is counted at both
	// the sender and the receiver.
	if totalBcastMsgs != 2*(p-1) {
		t.Fatalf("Bcast histogram msgs = %d, want %d", totalBcastMsgs, 2*(p-1))
	}
	if got := res.CollectiveNames(); len(got) != 3 {
		t.Fatalf("collective names = %v", got)
	}
}

func TestNilTracerComputeAllocatesNothing(t *testing.T) {
	var c *Comm
	mustRun(t, 1, cfg(), func(cc *Comm) {
		cc.Compute(1, "warm") // create the kernel bucket outside the measurement
		c = cc
	})
	allocs := testing.AllocsPerRun(100, func() {
		c.Compute(100, "warm")
		c.Elapse(1e-9, "warm")
		c.Annotate("ignored")
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer hot path allocates %v per run, want 0", allocs)
	}
}

func TestChromeTraceValidates(t *testing.T) {
	_, tr := tracedRun(t, 4)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	valid := map[string]bool{"X": true, "i": true, "M": true, "s": true, "f": true}
	sawSpan, sawFlow := false, false
	for i, e := range parsed.TraceEvents {
		ph, _ := e["ph"].(string)
		if !valid[ph] {
			t.Fatalf("event %d: bad phase %q", i, ph)
		}
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event %d: missing name", i)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event %d: missing pid", i)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Fatalf("event %d: missing tid", i)
		}
		if ph == "X" {
			sawSpan = true
			if ts, ok := e["ts"].(float64); !ok || ts < 0 {
				t.Fatalf("event %d: bad ts %v", i, e["ts"])
			}
			if dur, ok := e["dur"].(float64); !ok || dur < 0 {
				t.Fatalf("event %d: bad dur %v", i, e["dur"])
			}
		}
		if ph == "s" || ph == "f" {
			sawFlow = true
			if _, ok := e["id"].(float64); !ok {
				t.Fatalf("flow event %d: missing id", i)
			}
		}
	}
	if !sawSpan || !sawFlow {
		t.Fatalf("trace missing span (%v) or flow (%v) events", sawSpan, sawFlow)
	}
}

func TestCriticalPathNamesMakespanRank(t *testing.T) {
	// Rank 0 computes 5 ms then sends to rank 1, which only computes
	// 1 ms after receiving: rank 1 holds the makespan but the path must
	// route through rank 0's long compute.
	tr := NewTrace()
	conf := cfg()
	conf.Tracer = tr
	res := mustRun(t, 3, conf, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Compute(5e6, "long")
			sendFloats(c, 1, 1, []float64{1})
		case 1:
			recvFloats(c, 0, 1)
			c.Compute(1e6, "tail")
		case 2:
			c.Compute(1e5, "idle")
		}
	})
	cp := tr.CriticalPath()
	if cp.MakespanRank != res.MakespanRank() {
		t.Fatalf("critical path rank %d != stats makespan rank %d", cp.MakespanRank, res.MakespanRank())
	}
	if cp.MakespanRank != 1 {
		t.Fatalf("makespan rank = %d, want 1", cp.MakespanRank)
	}
	if math.Abs(cp.Makespan-res.MaxTime()) > 1e-12 {
		t.Fatalf("critical path makespan %v != MaxTime %v", cp.Makespan, res.MaxTime())
	}
	if cp.ByName["long"] == 0 {
		t.Fatalf("path missed rank 0's dominant compute: %v", cp.ByName)
	}
	if cp.Switches == 0 {
		t.Fatal("path never switched ranks despite the cross-rank dependency")
	}
	// The path segments are disjoint and cover the makespan.
	var sum float64
	prevEnd := 0.0
	for i, s := range cp.Steps {
		if s.Start < prevEnd-1e-12 {
			t.Fatalf("step %d overlaps previous (start %v < prev end %v)", i, s.Start, prevEnd)
		}
		sum += s.End - s.Start
		prevEnd = s.End
	}
	if math.Abs(sum-cp.Makespan) > 1e-9 {
		t.Fatalf("path durations sum to %v, want makespan %v", sum, cp.Makespan)
	}
	rep := cp.Report()
	if rep == "" {
		t.Fatal("empty report")
	}
}

func TestCriticalPathOnCollectiveProgram(t *testing.T) {
	_, tr := tracedRun(t, 8)
	cp := tr.CriticalPath()
	if cp.MakespanRank < 0 || len(cp.Steps) == 0 {
		t.Fatal("no critical path recovered")
	}
	var sum float64
	for _, s := range cp.Steps {
		sum += s.End - s.Start
	}
	if math.Abs(sum-cp.Makespan) > 1e-9 {
		t.Fatalf("path durations sum to %v, want makespan %v", sum, cp.Makespan)
	}
}

func TestAnnotateAndMarkEvents(t *testing.T) {
	_, tr := tracedRun(t, 2)
	found := false
	for _, e := range tr.Events(0) {
		if e.Kind == EvMark && e.Name == "start" {
			if e.Duration() != 0 {
				t.Fatal("marker must be zero-duration")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("annotation marker missing from trace")
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset left events behind")
	}
}

func TestSendRecvSeqMatch(t *testing.T) {
	_, tr := tracedRun(t, 4)
	type half struct{ src, dst, tag, seq int }
	sends := map[half]int{}
	recvs := map[half]int{}
	for _, r := range tr.Ranks() {
		for _, e := range tr.Events(r) {
			switch e.Kind {
			case EvSend:
				sends[half{e.Rank, e.Peer, e.Tag, e.Seq}]++
			case EvRecv:
				recvs[half{e.Peer, e.Rank, e.Tag, e.Seq}]++
			}
		}
	}
	if !reflect.DeepEqual(sends, recvs) {
		t.Fatalf("send/recv halves do not match:\nsends %v\nrecvs %v", sends, recvs)
	}
}

// Reset discards all recorded events so the Trace can be reused.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.perRank = map[int][]Event{}
	t.mu.Unlock()
}

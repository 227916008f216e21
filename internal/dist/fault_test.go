package dist

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// ringBody is a small deterministic workload exercising compute, p2p and
// collectives: each rank computes, passes a token around the ring, then
// allreduces a scalar (Reduce, then Bcast).
func ringBody(c *Comm) {
	c.Compute(1e6, "work")
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() - 1 + c.Size()) % c.Size()
	sendFloats(c, next, 7, []float64{float64(c.Rank())})
	got := recvFloats(c, prev, 7)
	allreduceSum(c, []float64{got[0]})
}

func TestInertFaultPlanBitIdentical(t *testing.T) {
	run := func(plan *FaultPlan, tr Tracer) *Result {
		c := cfg()
		c.Fault = plan
		c.Tracer = tr
		return mustRun(t, 4, c, ringBody)
	}
	t1, t2 := NewTrace(), NewTrace()
	base := run(nil, t1)
	inert := run(&FaultPlan{Seed: 42}, t2)
	for r := range base.Ranks {
		if base.Ranks[r].Time != inert.Ranks[r].Time {
			t.Fatalf("rank %d clock differs under inert plan: %v vs %v", r, base.Ranks[r].Time, inert.Ranks[r].Time)
		}
		if !reflect.DeepEqual(base.Ranks[r], inert.Ranks[r]) {
			t.Fatalf("rank %d stats differ under inert plan", r)
		}
		if !reflect.DeepEqual(t1.Events(r), t2.Events(r)) {
			t.Fatalf("rank %d trace differs under inert plan", r)
		}
	}
}

func TestInjectedCrashRankError(t *testing.T) {
	c := cfg()
	c.Fault = &FaultPlan{Crashes: []Crash{{Rank: 1, At: 5e-4}}}
	res, err := RunE(4, c, func(c *Comm) error {
		for i := 0; i < 100; i++ {
			ringBody(c)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from the injected crash")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RankError, got %T: %v", err, err)
	}
	if re.Rank != 1 {
		t.Fatalf("crash attributed to rank %d, want 1", re.Rank)
	}
	if re.VirtualTime != 5e-4 {
		t.Fatalf("crash virtual time %v, want 5e-4", re.VirtualTime)
	}
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("error does not wrap ErrInjectedCrash: %v", err)
	}
	if res == nil || len(res.Ranks) != 4 {
		t.Fatal("partial stats missing")
	}
	if res.Ranks[1].Time != 5e-4 {
		t.Fatalf("crashed rank clock %v, want pinned to 5e-4", res.Ranks[1].Time)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not name the rank: %v", err)
	}
}

func TestRunEBodyError(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunE(3, cfg(), func(c *Comm) error {
		c.Allgather(nil, 0)
		if c.Rank() == 2 {
			return boom
		}
		c.Allgather(nil, 0)
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("expected rank 2 *RankError, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error does not wrap the body error: %v", err)
	}
}

func TestRunEPanicBecomesRankError(t *testing.T) {
	_, err := RunE(3, cfg(), func(c *Comm) error {
		c.Allgather(nil, 0)
		if c.Rank() == 1 {
			panic("kaboom")
		}
		c.Allgather(nil, 0)
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("expected rank 1 *RankError, got %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic message lost: %v", err)
	}
}

func TestCyclicWaitDeadlock(t *testing.T) {
	_, err := RunE(3, cfg(), func(c *Comm) error {
		// Every rank receives from its successor before sending: a
		// 3-cycle that can never make progress.
		next := (c.Rank() + 1) % c.Size()
		recvFloats(c, next, 9)
		sendFloats(c, next, 9, []float64{1})
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError, got %T: %v", err, err)
	}
	if len(de.Waits) != 3 {
		t.Fatalf("wait-for graph has %d edges, want 3: %v", len(de.Waits), de)
	}
	msg := err.Error()
	for _, want := range []string{"wait-for graph", "rank 0 -> rank 1", "rank 1 -> rank 2", "rank 2 -> rank 0", "tag 9"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock report missing %q:\n%s", want, msg)
		}
	}
}

func TestDroppedMessageDeadlock(t *testing.T) {
	c := cfg()
	c.Fault = &FaultPlan{Messages: []MessageFault{{Src: 0, Dst: 1, Tag: 5, Seq: 0, Op: DropMessage}}}
	_, err := RunE(2, c, func(c *Comm) error {
		if c.Rank() == 0 {
			sendFloats(c, 1, 5, []float64{1, 2})
		} else {
			recvFloats(c, 0, 5)
		}
		return nil
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected *DeadlockError after dropped message, got %v", err)
	}
	if len(de.Waits) != 1 || de.Waits[0].Rank != 1 || de.Waits[0].On != 0 {
		t.Fatalf("unexpected wait-for graph: %+v", de.Waits)
	}
	if len(de.Done) != 1 || de.Done[0] != 0 {
		t.Fatalf("sender should be listed as exited: %+v", de.Done)
	}
}

func TestDuplicateMessage(t *testing.T) {
	c := cfg()
	c.Fault = &FaultPlan{Messages: []MessageFault{{Src: 0, Dst: 1, Tag: 5, Seq: 0, Op: DuplicateMessage}}}
	var first, second []float64
	_, err := RunE(2, c, func(c *Comm) error {
		if c.Rank() == 0 {
			sendFloats(c, 1, 5, []float64{3, 4})
		} else {
			first = recvFloats(c, 0, 5)
			second = recvFloats(c, 0, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("duplicate delivery should not fail the run: %v", err)
	}
	if !reflect.DeepEqual(first, []float64{3, 4}) || !reflect.DeepEqual(second, []float64{3, 4}) {
		t.Fatalf("duplicate payloads wrong: %v, %v", first, second)
	}
}

func TestCorruptMessage(t *testing.T) {
	c := cfg()
	c.Fault = &FaultPlan{Seed: 7, Messages: []MessageFault{{Src: 0, Dst: 1, Tag: 5, Seq: 0, Op: CorruptMessage}}}
	sent := []float64{1, 2, 3, 4}
	var got []float64
	_, err := RunE(2, c, func(c *Comm) error {
		if c.Rank() == 0 {
			sendFloats(c, 1, 5, sent)
		} else {
			got = recvFloats(c, 0, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("corruption alone should not fail the run: %v", err)
	}
	if !reflect.DeepEqual(sent, []float64{1, 2, 3, 4}) {
		t.Fatal("corrupt mutated the sender's buffer")
	}
	diff := 0
	for i := range sent {
		if got[i] != sent[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d elements, want exactly 1: sent %v got %v", diff, sent, got)
	}
}

func TestStragglerScalesClock(t *testing.T) {
	body := func(c *Comm) { c.Compute(1e9, "work") }
	base := mustRun(t, 2, cfg(), body)
	c := cfg()
	c.Fault = &FaultPlan{Stragglers: []Straggler{{Rank: 1, ComputeScale: 3}}}
	slow := mustRun(t, 2, c, body)
	if slow.Ranks[0].Time != base.Ranks[0].Time {
		t.Fatal("non-straggler rank clock changed")
	}
	want := 3 * base.Ranks[1].Time
	if math.Abs(slow.Ranks[1].Time-want) > 1e-12*want {
		t.Fatalf("straggler clock %v, want %v", slow.Ranks[1].Time, want)
	}
}

func TestCheckNumericsGuard(t *testing.T) {
	c := cfg()
	c.CheckNumerics = true
	_, err := RunE(4, c, func(c *Comm) error {
		x := []float64{1, 2}
		if c.Rank() == 2 {
			x[1] = math.NaN()
		}
		allreduceSum(c, x)
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RankError, got %v", err)
	}
	if re.Rank != 2 {
		t.Fatalf("poison attributed to rank %d, want 2", re.Rank)
	}
	if !errors.Is(err, ErrNumericalPoison) {
		t.Fatalf("error does not wrap ErrNumericalPoison: %v", err)
	}
	if !strings.Contains(err.Error(), "Reduce") {
		t.Fatalf("error does not name the collective: %v", err)
	}
}

func TestCheckNumericsCleanRun(t *testing.T) {
	c := cfg()
	c.CheckNumerics = true
	if _, err := RunE(4, c, func(c *Comm) error { ringBody(c); return nil }); err != nil {
		t.Fatalf("clean payloads must pass the guard: %v", err)
	}
}

// A receive whose payload fails the caller's type assertion ends as that
// rank's *RankError naming the panic, not as a crash of the process.
func TestTypedRecvMismatch(t *testing.T) {
	_, err := RunE(2, cfg(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []int{1, 2}, 16)
		} else {
			recvFloats(c, 0, 3)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("expected rank 1 *RankError, got %v", err)
	}
	for _, want := range []string{"rank 1", "panic", "[]int", "[]float64"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch report missing %q: %v", want, err)
		}
	}
}

// An []int payload (the solvers' permutations) arrives as sent.
func TestRecvInts(t *testing.T) {
	var got []int
	_, err := RunE(2, cfg(), func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 3, []int{5, 6}, 16)
		} else {
			got = c.Recv(0, 3).([]int)
		}
		return nil
	})
	if err != nil || !reflect.DeepEqual(got, []int{5, 6}) {
		t.Fatalf("Recv: got %v, err %v", got, err)
	}
}

func TestCrashUnwindsBlockedPeers(t *testing.T) {
	// Rank 0 crashes immediately; every other rank blocks receiving from
	// it. The run must terminate (no hang) with rank 0's crash as the
	// primary error, not the survivors' aborts.
	c := cfg()
	c.Fault = &FaultPlan{Crashes: []Crash{{Rank: 0, At: 0}}}
	_, err := RunE(4, c, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1, "work")
			sendFloats(c, 1, 2, []float64{1})
		} else {
			recvFloats(c, 0, 2)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("primary error should be rank 0's crash, got %v", err)
	}
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("expected injected-crash error, got %v", err)
	}
}

func TestCheckpointStore(t *testing.T) {
	s := NewCheckpointStore()
	if _, _, ok := s.Latest(2); ok {
		t.Fatal("empty store reported a snapshot")
	}
	s.Save(0, 0, "a0")
	s.Save(0, 1, "b0")
	s.Save(1, 0, "a1") // rank 1 never saved iteration 1: incomplete cut
	iter, states, ok := s.Latest(2)
	if !ok || iter != 0 {
		t.Fatalf("Latest = (%d, ok=%v), want complete cut 0", iter, ok)
	}
	if states[0] != "a0" || states[1] != "b0" {
		t.Fatalf("wrong states: %v", states)
	}
	s.Save(1, 1, "b1")
	if iter, _, _ := s.Latest(2); iter != 1 {
		t.Fatalf("Latest after completing cut 1 = %d", iter)
	}
}

func TestDeterministicFaultRuns(t *testing.T) {
	// The same plan twice must produce identical partial stats.
	run := func() (*Result, error) {
		c := cfg()
		c.Fault = &FaultPlan{
			Seed:       11,
			Crashes:    []Crash{{Rank: 2, At: 3e-4}},
			Stragglers: []Straggler{{Rank: 3, CommScale: 2, ComputeScale: 2}},
		}
		return RunE(4, c, func(c *Comm) error {
			for i := 0; i < 50; i++ {
				ringBody(c)
			}
			return nil
		})
	}
	r1, e1 := run()
	r2, e2 := run()
	if (e1 == nil) != (e2 == nil) || e1.Error() != e2.Error() {
		t.Fatalf("errors differ across identical runs:\n%v\n%v", e1, e2)
	}
	for r := range r1.Ranks {
		if r1.Ranks[r].Time != r2.Ranks[r].Time {
			t.Fatalf("rank %d clock differs across identical fault runs", r)
		}
	}
}

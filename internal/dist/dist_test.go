package dist

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func cfg() Config { return Config{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9} }

// mustRun runs body on p ranks through RunE and fails tb on a run error.
func mustRun(tb testing.TB, p int, conf Config, body func(*Comm)) *Result {
	tb.Helper()
	res, err := RunE(p, conf, func(c *Comm) error { body(c); return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func sendFloats(c *Comm, dst, tag int, x []float64) { c.Send(dst, tag, x, 8*len(x)) }

func recvFloats(c *Comm, src, tag int) []float64 { return c.Recv(src, tag).([]float64) }

// sumFloats is a Reduce combine that adds float64 slices element-wise
// into a fresh slice, leaving both payloads untouched.
func sumFloats(a, b interface{}) interface{} {
	av, bv := a.([]float64), b.([]float64)
	out := make([]float64, len(av))
	for i := range out {
		out[i] = av[i] + bv[i]
	}
	return out
}

// allreduceSum is the test programs' allreduce: Reduce to rank 0, then
// Bcast.
func allreduceSum(c *Comm, x []float64) []float64 {
	s := c.Reduce(0, x, 8*len(x), sumFloats)
	return c.Bcast(0, s, 8*len(x)).([]float64)
}

func TestRunSingleRank(t *testing.T) {
	res := mustRun(t, 1, cfg(), func(c *Comm) {
		if c.Rank() != 0 || c.Size() != 1 {
			t.Error("bad rank/size")
		}
		c.Compute(1e6, "work")
	})
	if got := res.MaxTime(); math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("virtual time = %v, want 1e-3", got)
	}
	if got := res.MaxKernels()["work"]; math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("kernel time = %v", got)
	}
}

// RunRoot hands back rank 0's result and the run's statistics. At one
// rank a body error is the body's own, unwrapped, and a panic is a
// *RankError; at p > 1 a body error is RunE's *RankError as before.
func TestRunRoot(t *testing.T) {
	got, res, err := RunRoot(1, DefaultConfig(), func(c *Comm) (int, error) {
		c.Compute(1e6, "work")
		return c.Size() + 41, nil
	})
	if got != 42 || err != nil || len(res.Ranks) != 1 || res.MaxKernels()["work"] <= 0 {
		t.Fatalf("RunRoot = %v, %+v, %v; want 42, a one-rank result with a work kernel, nil", got, res, err)
	}
	got, res, err = RunRoot(3, cfg(), func(c *Comm) (int, error) { return 10 * c.Rank(), nil })
	if got != 0 || err != nil || len(res.Ranks) != 3 {
		t.Fatalf("RunRoot(3) = %v, %v; want rank 0's 0, nil", got, err)
	}
	own := errors.New("body failed")
	if _, _, err := RunRoot(1, DefaultConfig(), func(*Comm) (int, error) { return 0, own }); err != own {
		t.Fatalf("RunRoot error = %v, want the body's own error", err)
	}
	var re *RankError
	_, _, err = RunRoot(1, DefaultConfig(), func(*Comm) (int, error) { panic("boom") })
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("RunRoot panic = %v, want a rank-0 *RankError", err)
	}
	_, _, err = RunRoot(2, cfg(), func(*Comm) (int, error) { return 0, own })
	if !errors.As(err, &re) || !errors.Is(err, own) {
		t.Fatalf("RunRoot(2) error = %v, want a *RankError wrapping the body's error", err)
	}
}

func TestSendRecvTransfersData(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		mustRun(t, p, cfg(), func(c *Comm) {
			if c.Rank() == 0 {
				for r := 1; r < c.Size(); r++ {
					sendFloats(c, r, 7, []float64{float64(r), 42})
				}
			} else {
				got := recvFloats(c, 0, 7)
				if got[0] != float64(c.Rank()) || got[1] != 42 {
					t.Errorf("rank %d got %v", c.Rank(), got)
				}
			}
		})
	}
}

func TestRecvClockPropagation(t *testing.T) {
	// Rank 0 computes for 1 ms then sends; rank 1's receive must not
	// complete before rank 0's send started.
	res := mustRun(t, 2, cfg(), func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1e6, "w") // 1 ms
			sendFloats(c, 1, 1, []float64{1})
		} else {
			recvFloats(c, 0, 1)
		}
	})
	r1 := res.Ranks[1].Time
	if r1 < 1e-3 {
		t.Fatalf("rank 1 clock %v should include rank 0's 1 ms compute", r1)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	mustRun(t, 2, cfg(), func(c *Comm) {
		if c.Rank() == 0 {
			sendFloats(c, 1, 1, []float64{1})
			sendFloats(c, 1, 2, []float64{2})
		} else {
			// Receive in reverse tag order.
			b := recvFloats(c, 0, 2)
			a := recvFloats(c, 0, 1)
			if a[0] != 1 || b[0] != 2 {
				t.Error("tag matching failed")
			}
		}
	})
}

func TestAllgatherSynchronizesClocks(t *testing.T) {
	res := mustRun(t, 4, cfg(), func(c *Comm) {
		// Rank 2 is slow before the allgather.
		if c.Rank() == 2 {
			c.Compute(5e6, "slow") // 5 ms
		}
		c.Allgather(nil, 0)
	})
	for _, s := range res.Ranks {
		if s.Time < 5e-3 {
			t.Fatalf("rank %d left the allgather at %v, before the slow rank entered", s.Rank, s.Time)
		}
	}
}

func TestBcastAllRanksReceive(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root += 3 {
			mustRun(t, p, cfg(), func(c *Comm) {
				var payload interface{}
				if c.Rank() == root {
					payload = []float64{3.14, float64(root)}
				}
				got := c.Bcast(root, payload, 16).([]float64)
				if got[0] != 3.14 || got[1] != float64(root) {
					t.Errorf("p=%d root=%d rank=%d got %v", p, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		mustRun(t, p, cfg(), func(c *Comm) {
			x := []float64{float64(c.Rank()), 1}
			got := c.Reduce(0, x, 16, sumFloats)
			if c.Rank() == 0 {
				wantSum := float64(p*(p-1)) / 2
				if v := got.([]float64); v[0] != wantSum || v[1] != float64(p) {
					t.Errorf("p=%d reduce got %v", p, v)
				}
			} else if got != nil {
				t.Error("non-root should get nil")
			}
		})
	}
}

// Reduce hands the payloads to the combine untouched: with a combine
// that builds a fresh result, no rank's input changes.
func TestReduceDoesNotClobberInput(t *testing.T) {
	mustRun(t, 4, cfg(), func(c *Comm) {
		x := []float64{1}
		c.Reduce(0, x, 8, sumFloats)
		if x[0] != 1 {
			t.Error("Reduce must not modify the caller's slice")
		}
	})
}

func TestGatherOrder(t *testing.T) {
	p := 5
	mustRun(t, p, cfg(), func(c *Comm) {
		parts := c.Gather(2, []float64{float64(c.Rank() * 10)}, 8)
		if c.Rank() != 2 {
			if parts != nil {
				t.Error("non-root gather must return nil")
			}
			return
		}
		for r := 0; r < p; r++ {
			if parts[r].([]float64)[0] != float64(r*10) {
				t.Errorf("gather slot %d wrong", r)
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	p := 4
	mustRun(t, p, cfg(), func(c *Comm) {
		parts := c.Allgather([]float64{float64(c.Rank())}, 8)
		for r := 0; r < p; r++ {
			if parts[r].([]float64)[0] != float64(r) {
				t.Errorf("allgather slot %d wrong on rank %d", r, c.Rank())
			}
		}
	})
}

func TestVirtualTimeCommCost(t *testing.T) {
	// One 8-byte message: sender pays α+8β; receiver at least that.
	conf := Config{Alpha: 1e-3, Beta: 1e-6, Gamma: 0}
	res := mustRun(t, 2, conf, func(c *Comm) {
		if c.Rank() == 0 {
			sendFloats(c, 1, 9, []float64{1})
		} else {
			recvFloats(c, 0, 9)
		}
	})
	want := 1e-3 + 8e-6
	if got := res.Ranks[0].Time; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sender time %v, want %v", got, want)
	}
	if got := res.Ranks[1].Time; math.Abs(got-want) > 1e-12 {
		t.Fatalf("receiver time %v, want %v", got, want)
	}
	if res.Ranks[1].CommTime <= 0 {
		t.Fatal("comm time not recorded")
	}
}

func TestBcastCostGrowsLogarithmically(t *testing.T) {
	// The binomial tree depth is ⌈log2 P⌉; completion time should grow
	// roughly with it, not with P.
	conf := Config{Alpha: 1e-3, Beta: 0, Gamma: 0}
	timeFor := func(p int) float64 {
		res := mustRun(t, p, conf, func(c *Comm) {
			var d interface{}
			if c.Rank() == 0 {
				d = []float64{1}
			}
			c.Bcast(0, d, 8)
		})
		return res.MaxTime()
	}
	t4, t16, t64 := timeFor(4), timeFor(16), timeFor(64)
	if t16 < t4 || t64 < t16 {
		t.Fatalf("bcast time should be non-decreasing: %v %v %v", t4, t16, t64)
	}
	// log growth: t64/t4 should be about 3, certainly below 6 (linear
	// would be 16).
	if t64/t4 > 6 {
		t.Fatalf("bcast cost grows too fast: t4=%v t64=%v", t4, t64)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	prog := func(c *Comm) {
		c.Compute(float64(c.Rank()+1)*1e5, "w")
		allreduceSum(c, []float64{1, 2, 3})
		if c.Rank() == 0 {
			sendFloats(c, c.Size()-1, 4, []float64{9})
		}
		if c.Rank() == c.Size()-1 {
			recvFloats(c, 0, 4)
		}
		c.Allgather(nil, 0)
	}
	a := mustRun(t, 6, cfg(), prog)
	b := mustRun(t, 6, cfg(), prog)
	for i := range a.Ranks {
		if a.Ranks[i].Time != b.Ranks[i].Time {
			t.Fatal("virtual time must be deterministic across runs")
		}
	}
}

// A panicking rank ends the run with a *RankError naming the rank and
// the panic value; its peer returns instead of waiting on it.
func TestRunPanicPropagates(t *testing.T) {
	_, _, err := RunRoot(2, cfg(), func(c *Comm) (int, error) {
		if c.Rank() == 1 {
			panic("boom")
		}
		return 0, nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("RunRoot = %v, want rank 1's *RankError carrying the panic", err)
	}
}

func TestMessageAccounting(t *testing.T) {
	res := mustRun(t, 3, cfg(), func(c *Comm) {
		if c.Rank() == 0 {
			sendFloats(c, 1, 5, []float64{1, 2}) // 16 bytes
			sendFloats(c, 2, 5, []float64{3})    // 8 bytes
		} else {
			recvFloats(c, 0, 5)
		}
	})
	if res.Ranks[0].MsgsSent != 2 || res.Ranks[0].BytesSent != 24 {
		t.Fatalf("rank 0 accounting: %d msgs, %d bytes", res.Ranks[0].MsgsSent, res.Ranks[0].BytesSent)
	}
	if res.TotalMessages() != 2 || res.TotalBytes() != 24 {
		t.Fatalf("totals: %d msgs, %d bytes", res.TotalMessages(), res.TotalBytes())
	}
}

func TestCollectiveMessageCountsScaleLogarithmically(t *testing.T) {
	msgsFor := func(p int) int {
		res := mustRun(t, p, cfg(), func(c *Comm) {
			var d interface{}
			if c.Rank() == 0 {
				d = []float64{1}
			}
			c.Bcast(0, d, 8)
		})
		return res.TotalMessages()
	}
	// A binomial broadcast sends exactly p−1 messages.
	for _, p := range []int{2, 4, 8, 16} {
		if got := msgsFor(p); got != p-1 {
			t.Fatalf("p=%d: %d messages, want %d", p, got, p-1)
		}
	}
}

func TestKernelAttribution(t *testing.T) {
	res := mustRun(t, 2, cfg(), func(c *Comm) {
		c.Compute(1e6, "gemm")
		c.Compute(2e6, "qr")
		c.Compute(1e6, "gemm")
	})
	got := res.MaxKernels()
	if math.Abs(got["gemm"]-2e-3) > 1e-12 || math.Abs(got["qr"]-2e-3) > 1e-12 || len(got) != 2 {
		t.Fatalf("MaxKernels %v, want gemm and qr at 2e-3", got)
	}
	names := res.Ranks[0].KOrder
	if len(names) != 2 || names[0] != "gemm" || names[1] != "qr" {
		t.Fatalf("kernel names %v", names)
	}
}

// A world without ranks panics in the caller; a guard that trips inside
// a rank panics there and ends the run as that rank's *RankError.
func TestGuardPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero ranks: expected panic")
			}
		}()
		RunE(0, cfg(), func(*Comm) error { return nil })
	}()
	for name, body := range map[string]func(*Comm){
		"negative flops": func(c *Comm) { c.Compute(-1, "x") },
		"negative time":  func(c *Comm) { c.Elapse(-1, "x") },
		"bad send rank":  func(c *Comm) { c.Send(5, 1, nil, 0) },
		"bad recv rank":  func(c *Comm) { c.Recv(-1, 1) },
	} {
		_, err := RunE(1, cfg(), func(c *Comm) error { body(c); return nil })
		var re *RankError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: got %v, want a *RankError from the guard's panic", name, err)
		}
	}
}

// TestOneRankWorldAllocs pins the fixed cost every solve pays for its
// one-rank world: RunE's setup and teardown, then one map entry and one
// order slot per kernel label on first use.
func TestOneRankWorldAllocs(t *testing.T) {
	conf := DefaultConfig()
	labels := []string{"SpMM", "GEMM", "orth", "select", "core"}
	for _, tc := range []struct {
		labels []string
		max    float64
	}{{nil, 10}, {labels, 11}} {
		body := func(c *Comm) (int, error) {
			for _, l := range tc.labels {
				c.Compute(1, l)
			}
			return 0, nil
		}
		got := testing.AllocsPerRun(100, func() { RunRoot(1, conf, body) })
		if got > tc.max {
			t.Errorf("RunRoot(1) charging %d labels: %v allocs, want ≤ %v", len(tc.labels), got, tc.max)
		}
	}
}

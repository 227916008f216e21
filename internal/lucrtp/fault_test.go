package lucrtp

import (
	"errors"
	"slices"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/sparse"
)

func distCfg() dist.Config { return dist.Config{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9} }

func faultOpts() Options {
	return Options{BlockSize: 4, Tol: 1e-8, Reorder: ReorderOff}
}

func TestFactorDistInjectedCrash(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	base, err := dist.RunE(4, distCfg(), func(c *dist.Comm) error {
		_, err := FactorDist(c, a, faultOpts())
		return err
	})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	crashAt := base.MaxTime() / 2
	cfg := distCfg()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 1, At: crashAt}}}
	_, err = dist.RunE(4, cfg, func(c *dist.Comm) error {
		_, err := FactorDist(c, a, faultOpts())
		return err
	})
	var re *dist.RankError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RankError, got %v", err)
	}
	if re.Rank != 1 || re.VirtualTime != crashAt {
		t.Fatalf("crash reported as rank %d at t=%v, want rank 1 at t=%v", re.Rank, re.VirtualTime, crashAt)
	}
	if !errors.Is(err, dist.ErrInjectedCrash) {
		t.Fatalf("error does not wrap ErrInjectedCrash: %v", err)
	}
}

func TestFactorDistCheckpointRestartBitIdentical(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	ilut := func() Options {
		return Options{BlockSize: 4, Tol: 1e-2, Threshold: AutoThreshold, EstIters: 6, CaptureDropped: true}
	}
	for _, p := range []int{1, 2} {
		checkRestartBitIdentical(t, a, p, faultOpts)
		// ILUT_CRTP with a captured T: the resumed run must rebuild the
		// dropped entries of the iterations before the cut.
		checkRestartBitIdentical(t, a, p, ilut)
	}
}

// checkRestartBitIdentical crashes rank 0 of p at 60% of the
// uninterrupted run's virtual time with checkpointing on, resumes from
// the surviving cut and requires the factors, the permutations, the
// captured T and the indicator history of the uninterrupted run bit for
// bit. At p = 1 the resumed run is the sequential Factor.
func checkRestartBitIdentical(t *testing.T, a *sparse.CSR, p int, mkOpts func() Options) {
	t.Helper()
	run := func(opts Options, cfg dist.Config) (*Result, *dist.Result, error) {
		var out *Result
		st, err := dist.RunE(p, cfg, func(c *dist.Comm) error {
			r, err := FactorDist(c, a, opts)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = r
			}
			return nil
		})
		return out, st, err
	}
	want, base, err := run(mkOpts(), distCfg())
	if err != nil {
		t.Fatalf("p=%d: uninterrupted run failed: %v", p, err)
	}
	if want.Iters < 3 {
		t.Fatalf("p=%d: test needs a multi-iteration run, got %d iterations", p, want.Iters)
	}
	if want.Dropped != nil && want.Dropped.NNZ() == 0 {
		t.Fatalf("p=%d: the ILUT run dropped nothing to capture", p)
	}

	// Crash mid-run with checkpointing on, then restart from the store.
	store := dist.NewCheckpointStore()
	opts := mkOpts()
	opts.CheckpointEvery = 1
	opts.Checkpoint = store
	cfg := distCfg()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 0, At: 0.6 * base.MaxTime()}}}
	if _, _, err := run(opts, cfg); err == nil {
		t.Fatalf("p=%d: faulted run should fail", p)
	}
	if _, _, ok := store.Latest(p); !ok {
		t.Fatalf("p=%d: no complete checkpoint survived the crash", p)
	}
	got, _, err := run(opts, distCfg())
	if p == 1 {
		// The sequential entry point resumes from the same store.
		got, err = Factor(a, opts)
	}
	if err != nil {
		t.Fatalf("p=%d: restarted run failed: %v", p, err)
	}

	if got.Rank != want.Rank || got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("p=%d: restart diverged: rank %d/%d iters %d/%d", p, got.Rank, want.Rank, got.Iters, want.Iters)
	}
	if got.ErrIndicator != want.ErrIndicator {
		t.Fatalf("p=%d: restart error indicator %v != %v", p, got.ErrIndicator, want.ErrIndicator)
	}
	sameCSR := func(name string, x, y *sparse.CSR) {
		if (x == nil) != (y == nil) {
			t.Fatalf("p=%d: %s present in only one run", p, name)
		}
		if x == nil {
			return
		}
		if x.Rows != y.Rows || x.Cols != y.Cols || !slices.Equal(x.RowPtr, y.RowPtr) ||
			!slices.Equal(x.ColIdx, y.ColIdx) || !slices.Equal(x.Val, y.Val) {
			t.Fatalf("p=%d: %s differs after restart", p, name)
		}
	}
	sameCSR("L", got.L, want.L)
	sameCSR("U", got.U, want.U)
	sameCSR("Dropped", got.Dropped, want.Dropped)
	if !slices.Equal(got.RowPerm, want.RowPerm) || !slices.Equal(got.ColPerm, want.ColPerm) {
		t.Fatalf("p=%d: permutations differ after restart", p)
	}
	if !slices.Equal(got.ErrHistory, want.ErrHistory) || !slices.Equal(got.FillHistory, want.FillHistory) {
		t.Fatalf("p=%d: indicator or fill history differs after restart", p)
	}
	if got.DroppedNNZ != want.DroppedNNZ || got.DroppedNorm2 != want.DroppedNorm2 {
		t.Fatalf("p=%d: threshold accounting differs after restart", p)
	}
}

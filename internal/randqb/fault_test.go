package randqb

import (
	"errors"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

func distCfg() dist.Config { return dist.Config{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9} }

func faultOpts() Options {
	return Options{BlockSize: 4, Tol: 1e-8, Seed: 7}
}

func TestFactorDistInjectedCrash(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	base, err := dist.RunE(4, distCfg(), func(c *dist.Comm) error {
		_, err := FactorDist(c, a, faultOpts(), nil)
		return err
	})
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	crashAt := base.MaxTime() / 2
	cfg := distCfg()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 2, At: crashAt}}}
	_, err = dist.RunE(4, cfg, func(c *dist.Comm) error {
		_, err := FactorDist(c, a, faultOpts(), nil)
		return err
	})
	var re *dist.RankError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RankError, got %v", err)
	}
	if re.Rank != 2 || re.VirtualTime != crashAt {
		t.Fatalf("crash reported as rank %d at t=%v, want rank 2 at t=%v", re.Rank, re.VirtualTime, crashAt)
	}
	if !errors.Is(err, dist.ErrInjectedCrash) {
		t.Fatalf("error does not wrap ErrInjectedCrash: %v", err)
	}
}

func TestFactorDistCheckpointRestartBitIdentical(t *testing.T) {
	a := decayMatrix(60, 50, 30, 0.6, 101)
	for _, p := range []int{1, 2} {
		checkRestartBitIdentical(t, a, p, faultOpts)
	}
}

// checkRestartBitIdentical crashes the last of p ranks mid-run with
// checkpointing on, resumes from the surviving cut and requires the
// factors and the indicator history of the uninterrupted run bit for bit.
// At p = 1 the one rank is the sequential solver.
func checkRestartBitIdentical(t *testing.T, a *sparse.CSR, p int, mkOpts func() Options) {
	t.Helper()
	run := func(opts Options, cfg dist.Config) (*Result, *dist.Result, error) {
		var out *Result
		st, err := dist.RunE(p, cfg, func(c *dist.Comm) error {
			r, err := FactorDist(c, a, opts, nil)
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

	store := dist.NewCheckpointStore()
	opts := mkOpts()
	opts.CheckpointEvery = 1
	opts.Checkpoint = store
	cfg := distCfg()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: p - 1, At: 0.6 * base.MaxTime()}}}
	if _, _, err := run(opts, cfg); err == nil {
		t.Fatalf("p=%d: faulted run should fail", p)
	}
	if _, _, ok := store.Latest(p); !ok {
		t.Fatalf("p=%d: no complete checkpoint survived the crash", p)
	}
	got, _, err := run(opts, distCfg())
	if err != nil {
		t.Fatalf("p=%d: restarted run failed: %v", p, err)
	}

	if got.Rank != want.Rank || got.Iters != want.Iters || got.Converged != want.Converged {
		t.Fatalf("p=%d: restart diverged: rank %d/%d iters %d/%d", p, got.Rank, want.Rank, got.Iters, want.Iters)
	}
	same := func(name string, x, y []float64) {
		if len(x) != len(y) {
			t.Fatalf("p=%d: %s length differs after restart", p, name)
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("p=%d: %s element %d differs after restart: %v != %v", p, name, i, x[i], y[i])
			}
		}
	}
	if got.Q.Rows != want.Q.Rows || got.Q.Cols != want.Q.Cols || got.B.Rows != want.B.Rows || got.B.Cols != want.B.Cols {
		t.Fatalf("p=%d: factor shapes differ after restart", p)
	}
	same("Q", got.Q.Data, want.Q.Data)
	same("B", got.B.Data, want.B.Data)
	same("ErrHistory", got.ErrHistory, want.ErrHistory)
}

// TestFactorDistCheckpointRestartSketchers repeats the bit-identical
// restart check for the non-Gaussian sketching operators: resume
// correctness depends on each sketcher's Draws/FastForward bookkeeping,
// which the Gaussian-only test above cannot exercise.
func TestFactorDistCheckpointRestartSketchers(t *testing.T) {
	cases := []struct {
		name string
		kind sketch.Kind
		nnz  int
	}{
		{"SparseSign", sketch.SparseSign, 3},
		{"SRTT", sketch.SRTT, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := decayMatrix(60, 50, 30, 0.6, 101)
			mkOpts := func() Options {
				o := faultOpts()
				o.Sketch = tc.kind
				o.SketchNNZ = tc.nnz
				return o
			}
			for _, p := range []int{1, 2} {
				checkRestartBitIdentical(t, a, p, mkOpts)
			}
		})
	}
}

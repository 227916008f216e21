package core

import (
	"errors"
	"testing"

	"sparselr/internal/dist"
)

// The fault plan and checkpoint store thread from Options through
// Approximate into the solvers: a crash surfaces as a *RankError and
// a rerun against the surviving checkpoints matches the clean run.
func TestApproximateDistFaultAndRestart(t *testing.T) {
	a := testMatrix(3)
	base := Options{Method: LUCRTP, BlockSize: 4, Tol: 1e-6, Seed: 7, Procs: 2}
	want, err := Approximate(a, base)
	if err != nil {
		t.Fatalf("clean distributed run failed: %v", err)
	}

	store := dist.NewCheckpointStore()
	faulted := base
	faulted.CheckpointEvery = 1
	faulted.CheckpointStore = store
	cfg := dist.DefaultConfig()
	cfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 1, At: want.VirtualTime / 2}}}
	faulted.DistConfig = &cfg
	_, err = Approximate(a, faulted)
	var re *dist.RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("expected rank 1 *RankError from the injected crash, got %v", err)
	}
	if !errors.Is(err, dist.ErrInjectedCrash) {
		t.Fatalf("error does not wrap ErrInjectedCrash: %v", err)
	}

	restarted := base
	restarted.CheckpointEvery = 1
	restarted.CheckpointStore = store
	got, err := Approximate(a, restarted)
	if err != nil {
		t.Fatalf("restarted run failed: %v", err)
	}
	if got.Rank != want.Rank || got.Iters != want.Iters || got.ErrIndicator != want.ErrIndicator {
		t.Fatalf("restart diverged: rank %d/%d iters %d/%d indicator %v/%v",
			got.Rank, want.Rank, got.Iters, want.Iters, got.ErrIndicator, want.ErrIndicator)
	}
	for i := range want.LU.L.Val {
		if got.LU.L.Val[i] != want.LU.L.Val[i] {
			t.Fatalf("L value %d differs after restart", i)
		}
	}
}

package experiments

// Chaos sweep: the fault matrix of DESIGN.md §4d run against every
// distributed algorithm. Each cell injects one fault class into an
// otherwise deterministic virtual-cluster run and reports how the
// runtime degraded: structured rank failure, deadlock report, detected
// numerical poison, silent corruption (result fingerprint drift), or a
// bit-identical checkpoint/restart recovery.

import (
	"errors"
	"fmt"
	"math"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/gen"
	"sparselr/internal/lucrtp"
	"sparselr/internal/qrtp"
)

// ChaosRow is one cell of the survival table.
type ChaosRow struct {
	Algo     string
	Scenario string
	Outcome  string
}

const chaosProcs = 4

// chaosRun executes one distributed algorithm under a fault plan and
// returns a fingerprint of the mathematical result (0 when the run
// failed), the runtime stats and the structured error.
type chaosRun func(cfg dist.Config, store *dist.CheckpointStore, every int) (uint64, *dist.Result, error)

func fpFloats(h uint64, xs []float64) uint64 {
	for _, x := range xs {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}

func fpInts(h uint64, xs []int) uint64 {
	for _, x := range xs {
		h ^= uint64(x)
		h *= 1099511628211
	}
	return h
}

// fpFactors fingerprints every stored entry of an approximation's
// factor table.
func fpFactors(ap *core.Approximation) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range ap.Factors(nil) {
		switch {
		case f.Dense != nil:
			h = fpFloats(h, f.Dense.Data)
		case f.Sparse != nil:
			h = fpFloats(fpInts(h, f.Sparse.ColIdx), f.Sparse.Val)
		default:
			h = fpInts(fpFloats(h, f.Values), f.Perm)
		}
	}
	return h
}

func chaosAlgos(seed int64) []struct {
	name       string
	checkpoint bool
	run        chaosRun
} {
	a := gen.RandLowRank(60, 50, 30, 0.7, 4, seed)
	csc := a.ToCSC()
	// solver runs a loop solver through core.Approximate on chaosProcs
	// ranks with the cell's fault plan and checkpoint store.
	solver := func(m core.Method) chaosRun {
		return func(cfg dist.Config, store *dist.CheckpointStore, every int) (uint64, *dist.Result, error) {
			ap, err := core.Approximate(a, core.Options{
				Method: m, BlockSize: 4, Tol: 1e-6, Seed: seed, Reorder: lucrtp.ReorderOff,
				Procs: chaosProcs, DistConfig: &cfg,
				CheckpointEvery: every, CheckpointStore: store,
			})
			if err != nil {
				return 0, nil, err
			}
			return fpFactors(ap), ap.Dist, nil
		}
	}
	return []struct {
		name       string
		checkpoint bool
		run        chaosRun
	}{
		{"LU_CRTP", true, solver(core.LUCRTP)},
		{"RandQB_EI", true, solver(core.RandQBEI)},
		{"RandUBV", true, solver(core.RandUBV)},
		{"QR_TP", false, func(cfg dist.Config, store *dist.CheckpointStore, every int) (uint64, *dist.Result, error) {
			var fp uint64
			res, err := dist.RunE(chaosProcs, cfg, func(c *dist.Comm) error {
				myCols := qrtp.BlockCyclicColumns(a.Cols, chaosProcs, c.Rank(), 8)
				r := qrtp.SelectColumnsDist(c, csc, myCols, 8)
				if c.Rank() == 0 {
					fp = fpFloats(fpInts(14695981039346656037, r.Winners), r.R11.Data)
				}
				return nil
			})
			return fp, res, err
		}},
	}
}

// chaosOutcome folds an error (or a fingerprint comparison for completed
// runs) into one survival-table cell.
func chaosOutcome(err error, fp, baseline uint64) string {
	if err == nil {
		switch {
		case baseline == 0 || fp == baseline:
			return "ok"
		default:
			return "SILENT CORRUPTION (result fingerprint drifted)"
		}
	}
	var de *dist.DeadlockError
	if errors.As(err, &de) {
		return fmt.Sprintf("deadlock detected (%d ranks blocked, wait-for graph reported)", len(de.Waits))
	}
	var re *dist.RankError
	if errors.As(err, &re) {
		switch {
		case errors.Is(err, dist.ErrInjectedCrash):
			return fmt.Sprintf("rank %d crashed @ t=%.3gs, survivors unwound", re.Rank, re.VirtualTime)
		case errors.Is(err, dist.ErrNumericalPoison):
			return fmt.Sprintf("poison detected in %s on rank %d", re.Phase, re.Rank)
		default:
			return fmt.Sprintf("rank %d failed: %v", re.Rank, re.Err)
		}
	}
	return err.Error()
}

// RunChaos runs the fault matrix over the distributed algorithms on
// chaosProcs virtual ranks and prints the survival table. Every row is
// deterministic: the faults are scheduled from the seeded plan, not from
// wall-clock races.
func RunChaos(cfg Config) []ChaosRow {
	w := cfg.out()
	fmt.Fprintf(w, "Chaos sweep: deterministic fault injection, p=%d virtual ranks\n", chaosProcs)
	fmt.Fprintf(w, "%-10s %-10s %s\n", "algorithm", "scenario", "outcome")
	var rows []ChaosRow
	emit := func(algo, scenario, outcome string) {
		rows = append(rows, ChaosRow{Algo: algo, Scenario: scenario, Outcome: outcome})
		fmt.Fprintf(w, "%-10s %-10s %s\n", algo, scenario, outcome)
	}
	base := dist.Config{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9}
	for _, alg := range chaosAlgos(cfg.Seed) {
		cleanFP, cleanRes, err := alg.run(base, nil, 0)
		if err != nil {
			emit(alg.name, "baseline", "UNEXPECTED: "+err.Error())
			continue
		}
		t := cleanRes.MaxTime()
		emit(alg.name, "baseline", fmt.Sprintf("ok (t=%.3gs)", t))

		crash := base
		crash.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 1, At: t / 2}}}
		fp, _, err := alg.run(crash, nil, 0)
		emit(alg.name, "crash", chaosOutcome(err, fp, cleanFP))

		strag := base
		strag.Fault = &dist.FaultPlan{Stragglers: []dist.Straggler{{Rank: 2, CommScale: 4, ComputeScale: 4}}}
		fp, sres, err := alg.run(strag, nil, 0)
		out := chaosOutcome(err, fp, cleanFP)
		if err == nil && fp == cleanFP {
			out = fmt.Sprintf("ok, result identical, makespan %.2fx", sres.MaxTime()/t)
		}
		emit(alg.name, "straggler", out)

		drop := base
		drop.Fault = &dist.FaultPlan{Messages: []dist.MessageFault{{Src: 0, Dst: 1, Tag: -1, Seq: -1, Op: dist.DropMessage}}}
		fp, _, err = alg.run(drop, nil, 0)
		emit(alg.name, "drop", chaosOutcome(err, fp, cleanFP))

		corrupt := base
		corrupt.CheckNumerics = true
		corrupt.Fault = &dist.FaultPlan{Seed: cfg.Seed, Messages: []dist.MessageFault{{Src: 0, Dst: 1, Tag: -1, Seq: -1, Op: dist.CorruptMessage}}}
		fp, _, err = alg.run(corrupt, nil, 0)
		emit(alg.name, "corrupt", chaosOutcome(err, fp, cleanFP))

		if !alg.checkpoint {
			emit(alg.name, "restart", "n/a (single tournament, no iteration loop)")
			continue
		}
		store := dist.NewCheckpointStore()
		crashCfg := base
		crashCfg.Fault = &dist.FaultPlan{Crashes: []dist.Crash{{Rank: 1, At: 0.6 * t}}}
		if _, _, err := alg.run(crashCfg, store, 1); err == nil {
			emit(alg.name, "restart", "UNEXPECTED: crash run completed")
			continue
		}
		fp, _, err = alg.run(base, store, 1)
		switch {
		case err != nil:
			emit(alg.name, "restart", "restart failed: "+err.Error())
		case fp == cleanFP:
			emit(alg.name, "restart", "recovered from checkpoint, result bit-identical")
		default:
			emit(alg.name, "restart", "RESTART MISMATCH (fingerprint drifted)")
		}
	}
	return rows
}

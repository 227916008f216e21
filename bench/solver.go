package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/dist"
	"sparselr/internal/sparse"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// solveRecord keeps what the checks and the per-layer metrics need from
// the first measured solve of a job (not the factors themselves).
type solveRecord struct {
	rank, iters, nnz int
	indicator        float64
	model, comm      float64
	msgs, bytes      int
	kernels          map[string]float64
}

// jobStats collects one job's samples over the measured passes.
type jobStats struct {
	walls, traced   []float64 // seconds per solve, untraced and traced
	cpus            []float64 // CPU seconds per untraced solve
	allocs, mallocs []float64 // per untraced solve
	ref             *solveRecord
}

// runSolver measures a solver workload: set-up (matrix generation and
// one warm-up solve, repeated setupReps times), then whole passes over
// the job list until the next pass would end after cfg.seconds. A traced
// run traces half the solves, so it can report the tracing overhead, and
// finishes with the kernel probes.
func runSolver(cfg runConfig, jobs []job) (*measurement, error) {
	m := newMeasurement(cfg.decl)
	calib := calibrate()

	var setups, gens []float64
	var keys []matrixKey
	var mats map[matrixKey]*sparse.CSR
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		keys, mats = workloadMatrices(jobKeys(jobs), cfg.seed)
		gens = append(gens, time.Since(start).Seconds())
		w := jobs[0]
		if _, err := core.Approximate(mats[matrixKey{w.label, w.scale}], w.options(cfg.seed)); err != nil {
			return nil, fmt.Errorf("warm-up solve %v: %w", w, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	root := t.begin("run", 0, 0, map[string]any{"workload": cfg.workload, "seed": cfg.seed})
	stats := make([]jobStats, len(jobs))
	var passWalls, passGC, passPause []float64
	var errRatio float64
	distTraced := map[int]bool{}
	measureStart := time.Now()
	for pass := 0; cfg.morePasses(pass, measureStart, passWalls); pass++ {
		pid := t.begin("pass", root, 0, map[string]any{"pass": pass})
		var wall, gcs, pause float64
		for i, j := range jobs {
			st := &stats[i]
			// A traced run traces every other job, alternating by pass, so
			// each job is timed both ways under the same host conditions.
			traced := cfg.trace && (pass+i)%2 == 1
			var jt *tracer
			var dt *dist.Trace
			if traced {
				jt = t
				if j.variant.procs > 1 && !distTraced[i] {
					dt = dist.NewTrace()
				}
			}
			jid := jt.begin("job", pid, 0, map[string]any{
				"variant": j.variant.name, "matrix": j.label, "scale": j.scale.String(),
				"method": j.variant.method.String(), "np": max(j.variant.procs, 1)})
			a := mats[matrixKey{j.label, j.scale}]
			sid := jt.begin("solve", jid, 0, nil)
			ap, s, err := solve(a, j, cfg.seed, dt)
			jt.end(sid)
			m.attempt()
			if err == nil {
				cid := jt.begin("check", jid, 0, nil)
				err = st.check(a, ap, &errRatio)
				jt.end(cid)
			}
			jt.end(jid)
			if err != nil {
				m.fail("%v pass %d: %v", j, pass, err)
				continue
			}
			wall += s.wall
			gcs += s.gcs
			pause += s.pause
			if traced {
				st.traced = append(st.traced, s.wall)
			} else {
				st.walls = append(st.walls, s.wall)
				st.cpus = append(st.cpus, s.cpu)
				st.allocs = append(st.allocs, s.alloc)
				st.mallocs = append(st.mallocs, s.mallocs)
			}
			if dt != nil {
				distTraced[i] = true
				if err := writeDistTrace(distTracePath(cfg, j), dt); err != nil {
					return nil, err
				}
			}
		}
		t.end(pid)
		passWalls = append(passWalls, wall)
		passGC = append(passGC, gcs)
		passPause = append(passPause, pause)
	}

	v := m.values
	v["setup_s"] = median(setups)
	v["gen.matrices_s"] = median(gens)
	var lats []float64
	var passS, tracedS, untracedS float64
	for i, st := range stats {
		j := jobs[i]
		passS += median(st.walls)
		if len(st.traced) > 0 {
			tracedS += median(st.traced)
			untracedS += median(st.walls)
		}
		for _, w := range st.walls {
			lats = append(lats, w*1e3)
		}
		alloc, mallocs := median(st.allocs)/1e6, median(st.mallocs)/1e3
		v["core.cpu_s"] += median(st.cpus)
		v["alloc_mb"] += alloc
		v["allocs_k"] += mallocs
		v[j.variant.name+".alloc_mb"] += alloc
		v[j.variant.name+".allocs_k"] += mallocs
		if r := st.ref; r != nil {
			v[j.variant.name+".iters"] += float64(r.iters)
			v[j.variant.name+".rank"] += float64(r.rank)
			v["factor_mb"] += float64(r.nnz) * 8 / 1e6
			if j.variant.procs > 1 {
				family := strings.SplitN(j.variant.name, ".", 2)[0]
				p := "dist." + family + "."
				v[p+"model_vs"] += r.model
				v[p+"comm_vs"] += r.comm
				v[p+"msgs"] += float64(r.msgs)
				v[p+"mbytes"] += float64(r.bytes) / 1e6
				for name, kt := range r.kernels {
					v[kernelMetric(family, name)] += kt
				}
			}
		}
	}
	v["core.solve_s"] = passS
	v["run.pass_s"] = median(passWalls)
	v["run.lat_ms_p50"] = percentile(lats, 50)
	v["run.lat_ms_p90"] = percentile(lats, 90)
	v["runtime.peak_rss_mb"] = selfPeakRSS()
	v["runtime.gc_cycles"] = median(passGC)
	v["runtime.gc_pause_ms"] = median(passPause) * 1e3
	v["core.err_ratio_max"] = errRatio
	m.info("passes", float64(len(passWalls)), "count")
	m.info("pass_s_min", minOf(passWalls), "s")
	m.info("pass_s_max", maxOf(passWalls), "s")
	m.info("lat_samples", float64(len(lats)), "count")
	for i, st := range stats {
		name := "job." + jobs[i].variant.name + "." + jobs[i].label
		m.info(name+".solve_s", median(st.walls), "s")
		m.info(name+".cpu_s", median(st.cpus), "s")
		if st.ref != nil {
			m.info(name+".factor_mb", float64(st.ref.nnz)*8/1e6, "MB")
		}
	}
	if cfg.trace {
		v["trace_overhead_frac"] = tracedS/untracedS - 1
	}
	return m, finishRun(cfg, m, t, root, keys, mats, calib)
}

// finishRun ends a run: the kernel probes (traced runs), the second host
// calibration, and the trace file.
func finishRun(cfg runConfig, m *measurement, t *tracer, root int, keys []matrixKey, mats map[matrixKey]*sparse.CSR, calib []float64) error {
	if cfg.trace {
		pr, err := runProbes(keys, mats, t, root)
		if err != nil {
			return err
		}
		for name, x := range pr {
			m.values[name] = x
		}
	}
	m.values["host.calib_ms"] = median(append(calib, calibrate()...))
	t.end(root)
	if cfg.trace {
		return t.write(tracePath(cfg))
	}
	return nil
}

// sample is one solve's cost.
type sample struct {
	wall, cpu, alloc, mallocs, gcs, pause float64 // s, s, B, count, count, s
}

// solve runs one job through core.Approximate and measures its wall
// time and its runtime.MemStats deltas. dt, when non-nil, records the
// distributed run's virtual-time events.
func solve(a *sparse.CSR, j job, seed int64, dt *dist.Trace) (*core.Approximation, sample, error) {
	opts := j.options(seed)
	if dt != nil {
		dc := dist.DefaultConfig()
		dc.Tracer = dt
		opts.DistConfig = &dc
	}
	// Start from a collected heap, so the solve's costs and the process's
	// peak resident set do not depend on the previous job's garbage.
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := selfCPU()
	start := time.Now()
	ap, err := core.Approximate(a, opts)
	wall := time.Since(start)
	cpu = selfCPU() - cpu
	runtime.ReadMemStats(&after)
	return ap, sample{
		wall:    wall.Seconds(),
		cpu:     cpu,
		alloc:   float64(after.TotalAlloc - before.TotalAlloc),
		mallocs: float64(after.Mallocs - before.Mallocs),
		gcs:     float64(after.NumGC - before.NumGC),
		pause:   float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
	}, err
}

// check reports what is wrong with a solve of the job. The first
// measured solve must converge, with an exact error within τ‖A‖_F;
// every later solve must repeat its rank, iteration count and error
// indicator bit for bit. errRatio tracks the largest error/(τ‖A‖_F).
func (st *jobStats) check(a *sparse.CSR, ap *core.Approximation, errRatio *float64) error {
	if st.ref != nil {
		r := st.ref
		if ap.Rank != r.rank || ap.Iters != r.iters || ap.ErrIndicator != r.indicator {
			return fmt.Errorf("rank/iterations/indicator %d/%d/%v differ from the first pass's %d/%d/%v",
				ap.Rank, ap.Iters, ap.ErrIndicator, r.rank, r.iters, r.indicator)
		}
		return nil
	}
	if !ap.Converged {
		return fmt.Errorf("did not converge (rank %d, indicator %g)", ap.Rank, ap.ErrIndicator)
	}
	bound := jobTol * ap.NormA
	trueErr := ap.TrueError(a)
	*errRatio = max(*errRatio, trueErr/bound)
	if trueErr > bound {
		return fmt.Errorf("converged but true error %g exceeds τ‖A‖_F = %g", trueErr, bound)
	}
	r := &solveRecord{rank: ap.Rank, iters: ap.Iters, nnz: ap.NNZFactors, indicator: ap.ErrIndicator,
		model: ap.VirtualTime, comm: ap.CommTime, kernels: ap.KernelTimes}
	if ap.Dist != nil {
		r.msgs, r.bytes = ap.Dist.TotalMessages(), ap.Dist.TotalBytes()
	}
	st.ref = r
	return nil
}

func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.buildDir, "trace-"+cfg.workload+".json")
}

// distTracePath names the virtual-time trace of an np>1 job, next to the
// run's trace file.
func distTracePath(cfg runConfig, j job) string {
	return strings.TrimSuffix(tracePath(cfg), ".json") + "." + j.variant.name + "-" + j.label + ".dist.json"
}

// writeDistTrace stores a distributed run's virtual-time events as
// Chrome trace_event JSON.
func writeDistTrace(path string, dt *dist.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dt.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfCPU is the user plus system CPU seconds this process, all its
// threads included, has used so far.
func selfCPU() float64 {
	ru := rusage(syscall.RUSAGE_SELF)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// selfPeakRSS is this process's peak resident set in MB.
func selfPeakRSS() float64 { return peakRSS(syscall.RUSAGE_SELF) }

// childrenPeakRSS is the largest peak resident set in MB of the child
// processes waited for so far (the lowrankd daemons).
func childrenPeakRSS() float64 { return peakRSS(syscall.RUSAGE_CHILDREN) }

func peakRSS(who int) float64 {
	return float64(rusage(who).Maxrss) * 1024 / 1e6 // ru_maxrss is in KiB on Linux
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // fails only for an invalid who
	return ru
}

// calibrate times a fixed pure-Go loop three times: it moves with the
// host's speed, not with this repository's code, and shows how far the
// machine drifted during a run.
func calibrate() []float64 {
	out := make([]float64, 3)
	for r := range out {
		start := time.Now()
		x, f := uint64(88172645463325252), 0.0
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f += float64(x>>11) * 0x1p-53
		}
		calibSink = f
		out[r] = time.Since(start).Seconds() * 1e3
	}
	return out
}

var calibSink float64

package main

import (
	"fmt"

	"sparselr/internal/core"
	"sparselr/internal/gen"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// Every solver job runs at the same tolerance, block size and power
// parameter; its solver seed is the workload seed.
const (
	jobTol   = 1e-2
	jobBlock = 32
	jobPower = 1
)

// workloadNames lists the workloads in the order run.sh runs them.
var workloadNames = []string{"randomized", "deterministic", "skeleton", "serve"}

// variant is one solver configuration; its name prefixes the per-variant
// metrics (variant.alloc_mb, .allocs_k, .iters, .rank).
type variant struct {
	name   string
	method core.Method
	sketch sketch.Kind
	procs  int
}

var variants = []variant{
	{"randqb.gauss", core.RandQBEI, sketch.Gaussian, 0},
	{"randqb.sparsesign", core.RandQBEI, sketch.SparseSign, 0},
	{"randqb.np4", core.RandQBEI, sketch.Gaussian, 4},
	{"randubv", core.RandUBV, sketch.Gaussian, 0},
	{"randubv.np4", core.RandUBV, sketch.Gaussian, 4},
	{"lucrtp", core.LUCRTP, sketch.Gaussian, 0},
	{"lucrtp.ilut", core.ILUTCRTP, sketch.Gaussian, 0},
	{"lucrtp.np4", core.LUCRTP, sketch.Gaussian, 4},
	{"cur.cur", core.CUR, sketch.Gaussian, 0},
	{"cur.id2", core.TwoSidedID, sketch.Gaussian, 0},
	{"cur.aca", core.ACA, sketch.Gaussian, 0},
}

func variantByName(name string) variant {
	for _, v := range variants {
		if v.name == name {
			return v
		}
	}
	panic("bench: unknown variant " + name)
}

// job is one solve of a solver workload: a variant on one Table I
// analog.
type job struct {
	variant variant
	label   string // M1..M6
	scale   gen.Scale
}

func (j job) String() string {
	return fmt.Sprintf("%s/%s/%s", j.variant.name, j.label, j.scale)
}

func (j job) options(seed int64) core.Options {
	return core.Options{
		Method: j.variant.method, BlockSize: jobBlock, Tol: jobTol, Power: jobPower,
		Seed: seed, Sketch: j.variant.sketch, Procs: j.variant.procs,
	}
}

func newJob(v, label string, s gen.Scale) job { return job{variantByName(v), label, s} }

// solverWorkloads are the job lists of one pass, each 3.5-5.5 s on a
// 2-CPU host, so a 15 s run measures two or three. The first job, a cheap
// one, is also the warm-up solve of the set-up.
//
//   - randomized: sketch apply, SpMM/AᵀQ, GEMM and orth do the work;
//     ordering, tournaments, skeleton selection and HTTP do none.
//   - deterministic: COLAMD, the QR tournaments, the Schur SpGEMM and
//     allocation dominate; no sketch runs.
//   - skeleton: QRCP column selection, CSR row/column extraction and
//     ACA's residual walks dominate; Schur and ordering do not run.
var solverWorkloads = map[string][]job{
	"randomized": {
		newJob("randqb.gauss", "M6", gen.Medium),
		newJob("randqb.gauss", "M1", gen.Medium),
		newJob("randqb.gauss", "M2", gen.Medium),
		newJob("randqb.gauss", "M3", gen.Medium),
		newJob("randqb.gauss", "M4", gen.Medium),
		newJob("randqb.gauss", "M5", gen.Medium),
		newJob("randqb.sparsesign", "M2", gen.Medium),
		newJob("randqb.sparsesign", "M4", gen.Medium),
		newJob("randqb.sparsesign", "M6", gen.Medium),
		newJob("randubv", "M1", gen.Medium),
		newJob("randubv", "M3", gen.Medium),
		newJob("randubv", "M5", gen.Medium),
		newJob("randqb.np4", "M2", gen.Medium),
		newJob("randubv.np4", "M6", gen.Medium),
	},
	"deterministic": {
		newJob("lucrtp.ilut", "M2", gen.Medium),
		newJob("lucrtp", "M1", gen.Medium),
		newJob("lucrtp.ilut", "M3", gen.Medium),
		newJob("lucrtp.np4", "M1", gen.Medium),
	},
	"skeleton": {
		newJob("cur.cur", "M6", gen.Medium),
		newJob("cur.cur", "M2", gen.Medium),
		newJob("cur.id2", "M1", gen.Medium),
		newJob("cur.id2", "M3", gen.Medium),
		newJob("cur.aca", "M2", gen.Medium),
		newJob("cur.aca", "M6", gen.Small),
	},
}

// matrixKey names one generated matrix of a workload.
type matrixKey struct {
	label string
	scale gen.Scale
}

// tableI rebuilds the gen.TableI recipe at scale s with every generator
// seed offset by seed−1: seed 1 reproduces gen.TableI(s) bit for bit,
// and other seeds draw new matrices of the same classes, sizes and
// spectrum shapes. Only the small and medium scales are used.
func tableI(s gen.Scale, seed int64) map[string]*sparse.CSR {
	type dims struct{ g1, g2, fd, fdof, c3, c4, e5, c6 int }
	var d dims
	switch s {
	case gen.Small:
		d = dims{g1: 14, g2: 14, fd: 7, fdof: 4, c3: 220, c4: 300, e5: 260, c6: 420}
	case gen.Medium:
		d = dims{g1: 32, g2: 32, fd: 12, fdof: 6, c3: 900, c4: 1400, e5: 1200, c6: 2400}
	default:
		panic(fmt.Sprintf("bench: scale %v not used", s))
	}
	o := seed - 1
	return map[string]*sparse.CSR{
		"M1": gen.ShapeSpectrum(gen.Laplacian2D(d.g1, d.g2), 6, 0, 1, 11+o),
		"M2": gen.ShapeSpectrum(gen.FluidStencil(d.fd, d.fd, d.fdof, 2+o), 8, 0, 1, 12+o),
		"M3": gen.ShapeSpectrum(gen.Circuit(d.c3, 6, 3+o), 5, 0, 1, 13+o),
		"M4": gen.ShapeSpectrum(gen.Circuit(d.c4, 5, 4+o), 4, 2*d.c4/100, 30, 14+o),
		"M5": gen.ShapeSpectrum(gen.Economic(d.e5, 5+o), 6, 0, 1, 15+o),
		"M6": gen.ShapeSpectrum(gen.Circuit(d.c6, 4, 6+o), 4, 4*d.c6/100, 1e3, 16+o),
	}
}

// workloadMatrices generates the distinct matrices the keys name, in
// first-use order.
func workloadMatrices(keys []matrixKey, seed int64) ([]matrixKey, map[matrixKey]*sparse.CSR) {
	tables := map[gen.Scale]map[string]*sparse.CSR{}
	mats := map[matrixKey]*sparse.CSR{}
	var order []matrixKey
	for _, k := range keys {
		if _, ok := mats[k]; ok {
			continue
		}
		t, ok := tables[k.scale]
		if !ok {
			t = tableI(k.scale, seed)
			tables[k.scale] = t
		}
		mats[k] = t[k.label]
		order = append(order, k)
	}
	return order, mats
}

func jobKeys(jobs []job) []matrixKey {
	keys := make([]matrixKey, len(jobs))
	for i, j := range jobs {
		keys[i] = matrixKey{j.label, j.scale}
	}
	return keys
}

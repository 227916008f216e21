package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/serve"
	"sparselr/internal/sketch"
	"sparselr/internal/sparse"
)

// probe is one real public call into a layer, timed once per distinct
// workload matrix outside the solve spans. prepare builds the call's
// inputs untimed; the metric is the sum over the workload's matrices of
// the median time per call, in the unit perSecond converts to.
type probe struct {
	name      string
	perSecond float64 // 1e3 for ms, 1e6 for us
	inner     int     // calls per timed sample (cheap calls repeat)
	prepare   func(k matrixKey, a *sparse.CSR) (func() error, error)
	// allocsK and mb, when set, name metrics for the thousands of heap
	// allocations and the MB allocated by one call.
	allocsK, mb string
}

// probeReps is the number of timed samples per probe and matrix.
const probeReps = 3

// runProbes runs every probe on every matrix and returns the metric
// values. The in-process serve.Server backing the serve-layer probes is
// drained before it returns.
func runProbes(keys []matrixKey, mats map[matrixKey]*sparse.CSR, t *tracer, parent int) (map[string]float64, error) {
	srv := serve.NewServer(serve.Config{Workers: 1})
	defer srv.Drain(context.Background())
	out := map[string]float64{}
	for _, p := range probes(srv) {
		for _, k := range keys {
			v, err := runProbe(p, k, mats[k], out, t, parent)
			if err != nil {
				return nil, fmt.Errorf("probe %s on %s/%s: %w", p.name, k.label, k.scale, err)
			}
			out[p.name] += v
		}
	}
	return out, nil
}

func runProbe(p probe, k matrixKey, a *sparse.CSR, out map[string]float64, t *tracer, parent int) (float64, error) {
	call, err := p.prepare(k, a)
	if err != nil {
		return 0, err
	}
	// The first call warms caches and pools; it also measures allocation.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := call(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	if p.allocsK != "" {
		out[p.allocsK] += float64(after.Mallocs-before.Mallocs) / 1e3
	}
	if p.mb != "" {
		out[p.mb] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	id := t.begin("probe."+p.name, parent, 0, map[string]any{"matrix": k.label, "scale": k.scale.String()})
	defer t.end(id)
	inner := max(p.inner, 1)
	samples := make([]float64, probeReps)
	for r := range samples {
		start := time.Now()
		for i := 0; i < inner; i++ {
			if err := call(); err != nil {
				return 0, err
			}
		}
		samples[r] = time.Since(start).Seconds() / float64(inner)
	}
	return median(samples) * p.perSecond, nil
}

func probes(srv http.Handler) []probe {
	return []probe{
		{name: "sketch.gauss_ms", perSecond: 1e3, prepare: sketchProbe(sketch.Gaussian)},
		{name: "sketch.sparsesign_ms", perSecond: 1e3, prepare: sketchProbe(sketch.SparseSign)},
		{name: "sparse.spmm_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			x, dst := randDense(a.Cols, jobBlock, 1), mat.NewDense(a.Rows, jobBlock)
			return func() error { a.MulDenseInto(dst, x); return nil }, nil
		}},
		{name: "sparse.spmmT_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			q, dst := randDense(a.Rows, jobBlock, 2), mat.NewDense(a.Cols, jobBlock)
			return func() error { a.MulTDenseInto(dst, q); return nil }, nil
		}},
		{name: "sparse.spgemm_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			// Schur-update shaped: an m×k block times a k×n block of A.
			idx := spread(jobBlock, min(a.Rows, a.Cols))
			l, u := a.ExtractCols(idx), a.ExtractRows(idx)
			return func() error { sparse.SpGEMM(l, u); return nil }, nil
		}},
		{name: "sparse.extract_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			idx := spread(jobBlock, min(a.Rows, a.Cols))
			return func() error {
				a.ExtractCols(idx)
				a.ExtractRows(idx)
				a.ExtractColsDense(idx)
				return nil
			}, nil
		}},
		{name: "sparse.mm_read_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			var buf bytes.Buffer
			if err := a.WriteMatrixMarket(&buf); err != nil {
				return nil, err
			}
			data := buf.Bytes()
			return func() error {
				b, err := sparse.ReadMatrixMarket(bytes.NewReader(data))
				if err == nil && b.NNZ() != a.NNZ() {
					err = fmt.Errorf("read back %d nonzeros, wrote %d", b.NNZ(), a.NNZ())
				}
				return err
			}, nil
		}},
		{name: "mat.orth_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			y := randDense(a.Rows, jobBlock, 3)
			var ws mat.OrthWorkspace
			return func() error { ws.Orth(y); return nil }, nil
		}},
		{name: "mat.gemmT_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			// Q_Kᵀ·Q_k of the re-orthogonalization step at K = 8 blocks.
			qK, qk := randDense(a.Rows, 8*jobBlock, 4), randDense(a.Rows, jobBlock, 5)
			dst := mat.NewDense(8*jobBlock, jobBlock)
			return func() error { mat.MulTInto(dst, qK, qk); return nil }, nil
		}},
		{name: "mat.qrcp_ms", perSecond: 1e3, prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
			// CUR's column selection: QRCP of the (k+8)×n sketch (AᵀΩ)ᵀ.
			y := sketch.New(sketch.Gaussian, a.Rows, 1, 0).Next(jobBlock + 8).MulCSR(a.Transpose()).T()
			return func() error { mat.QRCPSelect(y); return nil }, nil
		}},
		{name: "ordering.colamd_ms", perSecond: 1e3, allocsK: "ordering.colamd_allocs_k",
			prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
				return func() error { ordering.FillReducingOrder(a); return nil }, nil
			}},
		{name: "qrtp.tournament_ms", perSecond: 1e3, mb: "qrtp.tournament_mb",
			prepare: func(_ matrixKey, a *sparse.CSR) (func() error, error) {
				csc := a.ToCSC()
				return func() error { qrtp.SelectColumns(csc, jobBlock, qrtp.Binary); return nil }, nil
			}},
		{name: "serve.spec_key_us", perSecond: 1e6, inner: 200, prepare: func(k matrixKey, _ *sparse.CSR) (func() error, error) {
			spec := probeSpec(k)
			return func() error {
				s := spec
				if err := s.Validate(); err != nil {
					return err
				}
				s.Key()
				return nil
			}, nil
		}},
		{name: "serve.hit_us", perSecond: 1e6, inner: 20, prepare: func(k matrixKey, _ *sparse.CSR) (func() error, error) {
			body, err := json.Marshal(probeSpec(k))
			if err != nil {
				return nil, err
			}
			if _, err := submitInProcess(srv, body); err != nil { // the cold solve
				return nil, err
			}
			return func() error {
				v, err := submitInProcess(srv, body)
				if err == nil && v.Outcome != "cache_hit" {
					err = fmt.Errorf("resubmission was %q, not a cache hit", v.Outcome)
				}
				return err
			}, nil
		}},
		{name: "serve.export_ms", perSecond: 1e3, prepare: func(k matrixKey, _ *sparse.CSR) (func() error, error) {
			body, err := json.Marshal(probeSpec(k))
			if err != nil {
				return nil, err
			}
			v, err := submitInProcess(srv, body)
			if err != nil {
				return nil, err
			}
			path := "/v1/jobs/" + v.ID + "/factors/" + v.Result.Factors[0] + "?format=mm"
			return func() error {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.String())
				}
				return nil
			}, nil
		}},
	}
}

func sketchProbe(kind sketch.Kind) func(matrixKey, *sparse.CSR) (func() error, error) {
	return func(_ matrixKey, a *sparse.CSR) (func() error, error) {
		blk := sketch.New(kind, a.Cols, 1, 0).Next(jobBlock)
		dst := mat.NewDense(a.Rows, jobBlock)
		return func() error { blk.MulCSRInto(dst, a); return nil }, nil
	}
}

// probeSpec is the RandQB_EI request the serve-layer probes submit for a
// workload matrix (the daemon generates it from the label).
func probeSpec(k matrixKey) serve.Spec {
	return serve.Spec{Generator: k.label, Scale: k.scale.String(), Method: "RandQB_EI", Tol: 0.1, BlockSize: jobBlock, Seed: 1}
}

// submitInProcess posts a JSON spec straight into the handler and waits
// for the solve.
func submitInProcess(h http.Handler, body []byte) (reply, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=60s", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var v reply
	if rec.Code != http.StatusOK {
		return v, fmt.Errorf("POST /v1/jobs: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return v, err
	}
	if v.Result == nil || len(v.Result.Factors) == 0 {
		return v, fmt.Errorf("POST /v1/jobs: no result in %s", rec.Body.String())
	}
	return v, nil
}

// randDense is an r×c matrix of seeded standard normals.
func randDense(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// spread returns k indices evenly spaced over [0, n).
func spread(k, n int) []int {
	k = min(k, n)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return idx
}

// Package sparselr's root-level seed-drift gate: the default (Gaussian)
// sketch path must keep producing bit-identical factors to the historical
// implementation, so published seed results stand. Each case runs a solver
// on a fixed synthetic low-rank matrix and FNV-hashes the factor entries
// (IEEE-754 bit patterns, little-endian) plus the convergence metadata;
// the expected hashes were captured from the pre-sketch-layer code and any
// change to them means the default path drifted. verify.sh runs this as
// its drift-gate step.
package sparselr

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sparselr/internal/arrf"
	"sparselr/internal/cur"
	"sparselr/internal/dist"
	"sparselr/internal/lucrtp"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
	"sparselr/internal/randubv"
	"sparselr/internal/rsvd"
	"sparselr/internal/sparse"
)

// mustRun runs body on p ranks through dist.RunE and fails tb on a run
// error.
func mustRun(tb testing.TB, p int, cfg dist.Config, body func(*dist.Comm)) *dist.Result {
	tb.Helper()
	res, err := dist.RunE(p, cfg, func(c *dist.Comm) error { body(c); return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// driftMatrix builds a deterministic sparse sum of r sparse rank-1 terms
// with geometrically decaying weights — low-rank-plus-tail structure every
// solver under test converges on.
func driftMatrix(m, n, r int, rate float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(m, n)
	sigma := 1.0
	for t := 0; t < r; t++ {
		ui := rng.Perm(m)[:4+rng.Intn(3)]
		vi := rng.Perm(n)[:4+rng.Intn(3)]
		uv := make([]float64, len(ui))
		vv := make([]float64, len(vi))
		for x := range uv {
			uv[x] = 0.5 + rng.Float64()
		}
		for x := range vv {
			vv[x] = 0.5 + rng.Float64()
		}
		for x, i := range ui {
			for y, j := range vi {
				b.Add(i, j, sigma*uv[x]*vv[y])
			}
		}
		sigma *= rate
	}
	return b.ToCSR()
}

// driftHash accumulates uint64 words into FNV-64a in little-endian order.
type driftHash struct {
	h interface{ Write([]byte) (int, error) }
}

func newDriftHash() *driftHash { return &driftHash{fnv.New64a()} }

func (w *driftHash) u64(v uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	w.h.Write(b[:])
}

func (w *driftHash) dense(d *mat.Dense) {
	w.u64(uint64(d.Rows))
	w.u64(uint64(d.Cols))
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			w.u64(math.Float64bits(d.At(i, j)))
		}
	}
}

func (w *driftHash) csr(c *sparse.CSR) {
	w.u64(uint64(c.Rows))
	w.u64(uint64(c.Cols))
	for _, p := range c.RowPtr {
		w.u64(uint64(p))
	}
	for _, j := range c.ColIdx {
		w.u64(uint64(j))
	}
	for _, v := range c.Val {
		w.u64(math.Float64bits(v))
	}
}

func (w *driftHash) ints(xs []int) {
	w.u64(uint64(len(xs)))
	for _, x := range xs {
		w.u64(uint64(x))
	}
}

func (w *driftHash) sum() uint64 { return w.h.(interface{ Sum64() uint64 }).Sum64() }

func driftA() *sparse.CSR { return driftMatrix(180, 150, 60, 0.75, 42) }

func checkDrift(t *testing.T, name string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s: default-Gaussian output drifted: hash %016x, want %016x (seed results no longer reproducible)", name, got, want)
	}
}

func TestSeedDriftRandQBSerial(t *testing.T) {
	r, err := randqb.Factor(driftA(), randqb.Options{BlockSize: 8, Tol: 1e-3, Power: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.Q)
	w.dense(r.B)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Iters))
	checkDrift(t, "randqb_serial", w.sum(), 0x5964309abe663aa6)
}

func TestSeedDriftRandQBDist(t *testing.T) {
	var r *randqb.Result
	mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := randqb.FactorDist(c, driftA(), randqb.Options{BlockSize: 8, Tol: 1e-3, Power: 1, Seed: 7}, nil)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	w := newDriftHash()
	w.dense(r.Q)
	w.dense(r.B)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randqb_dist4", w.sum(), 0x46b8a828d5991f58)
}

func TestSeedDriftRandUBVSerial(t *testing.T) {
	r, err := randubv.Factor(driftA(), randubv.Options{BlockSize: 8, Tol: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := newDriftHash()
	w.dense(r.U)
	w.dense(r.B)
	w.dense(r.V)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randubv_serial", w.sum(), 0x1d20b624ba0a318c)
}

func TestSeedDriftRandUBVDist(t *testing.T) {
	var r *randubv.Result
	mustRun(t, 3, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := randubv.FactorDist(c, driftA(), randubv.Options{BlockSize: 8, Tol: 1e-3, Seed: 5})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	w := newDriftHash()
	w.dense(r.U)
	w.dense(r.B)
	w.dense(r.V)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	checkDrift(t, "randubv_dist3", w.sum(), 0xa5e50e8fc66c7e94)
}

// oneRank runs a solver body on a one-rank world, as core.Approximate
// does, and fails the test on an error.
func oneRank[T any](t *testing.T, body func(*dist.Comm) (T, error)) T {
	t.Helper()
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), body)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSeedDriftRSVD's hash was re-recorded when RSVD's attempts came to
// run as one-block RandQB_EI sweeps, which changes the factors.
func TestSeedDriftRSVD(t *testing.T) {
	r := oneRank(t, func(c *dist.Comm) (*rsvd.Result, error) {
		return rsvd.Factor(c, driftA(), rsvd.Options{InitialRank: 8, Tol: 1e-2, Power: 1, Seed: 3})
	})
	w := newDriftHash()
	w.dense(r.U)
	for _, s := range r.S {
		w.u64(math.Float64bits(s))
	}
	w.dense(r.V)
	w.u64(uint64(r.Rank))
	checkDrift(t, "rsvd", w.sum(), 0xeeae7e84f7ec7121)
}

// curDriftHash hashes a skeleton result: indices, sparse outer factors,
// dense core, and the convergence metadata.
func curDriftHash(r *cur.Result) uint64 {
	w := newDriftHash()
	w.ints(r.RowIdx)
	w.ints(r.ColIdx)
	w.csr(r.C)
	w.csr(r.R)
	w.dense(r.U)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Iters))
	return w.sum()
}

func TestSeedDriftCUR(t *testing.T) {
	r := oneRank(t, func(c *dist.Comm) (*cur.Result, error) {
		return cur.Factor(c, driftA(), cur.CUR, randqb.Options{BlockSize: 8, Tol: 1e-2, Seed: 11})
	})
	checkDrift(t, "cur", curDriftHash(r), 0x8216d146936065db)
}

func TestSeedDriftTwoSidedID(t *testing.T) {
	r := oneRank(t, func(c *dist.Comm) (*cur.Result, error) {
		return cur.Factor(c, driftA(), cur.ID2, randqb.Options{BlockSize: 8, Tol: 1e-2, Seed: 11})
	})
	checkDrift(t, "id2", curDriftHash(r), 0x11e18c7872baf581)
}

func TestSeedDriftACA(t *testing.T) {
	r := oneRank(t, func(c *dist.Comm) (*cur.Result, error) {
		return cur.Factor(c, driftA(), cur.ACA, randqb.Options{BlockSize: 8, Tol: 1e-2, Seed: 11})
	})
	checkDrift(t, "aca", curDriftHash(r), 0x2f6d311477ce8a22)
}

// luDriftHash hashes an LU_CRTP/ILUT_CRTP result: both sparse factors,
// both permutations, and the convergence metadata.
func luDriftHash(r *lucrtp.Result) uint64 {
	w := newDriftHash()
	w.csr(r.L)
	w.csr(r.U)
	w.ints(r.RowPerm)
	w.ints(r.ColPerm)
	w.u64(math.Float64bits(r.ErrIndicator))
	w.u64(uint64(r.Rank))
	return w.sum()
}

func TestSeedDriftLUCRTP(t *testing.T) {
	r, err := lucrtp.Factor(driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "lucrtp", luDriftHash(r), 0x9ac4b46643ca0857)
}

func TestSeedDriftILUTCRTP(t *testing.T) {
	r, err := lucrtp.Factor(driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, Threshold: lucrtp.AutoThreshold})
	if err != nil {
		t.Fatal(err)
	}
	checkDrift(t, "ilutcrtp", luDriftHash(r), 0x4b44ed6414b329fb)
}

func TestSeedDriftLUCRTPDist(t *testing.T) {
	var r *lucrtp.Result
	mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		rr, err := lucrtp.FactorDist(c, driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			r = rr
		}
	})
	checkDrift(t, "lucrtp_dist4", luDriftHash(r), 0x40fab40d215bb8a1)
}

func TestSeedDriftARRF(t *testing.T) {
	r := oneRank(t, func(c *dist.Comm) (*arrf.Result, error) {
		return arrf.Factor(c, driftA(), arrf.Options{Tol: 1e-2, Seed: 9})
	})
	w := newDriftHash()
	w.dense(r.Q)
	w.u64(uint64(r.Rank))
	w.u64(uint64(r.Probes))
	checkDrift(t, "arrf", w.sum(), 0x39fedc1b75b7f084)
}

// TestSeedDriftLUPaths pins the LU_CRTP/ILUT_CRTP paths the goldens
// above leave out: the blocked panel QR (k ≥ 48), a truncated last block,
// StableL, captured threshold matrices, the φ-control undo, column
// discarding with per-iteration reordering, each on one rank and on
// three. Beyond the factors it hashes ErrHistory, the thresholding
// accounting and every rank's virtual-time statistics, so a change that
// moves a kernel charge or a collective fails here too.
func TestSeedDriftLUPaths(t *testing.T) {
	big := driftMatrix(320, 280, 160, 0.93, 43)
	cases := []struct {
		name string
		a    *sparse.CSR
		opts lucrtp.Options
		want [2]uint64 // np = 1, np = 3
	}{
		{"k8", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3},
			[2]uint64{0x8e308a47c851f42b, 0x690b91be24d19e63}},
		{"k64_blocked", big, lucrtp.Options{BlockSize: 64, Tol: 1e-2},
			[2]uint64{0x30dc6de968e5f083, 0x263e73e28b6c6e68}},
		{"k64_truncated", driftA(), lucrtp.Options{BlockSize: 64, Tol: 1e-6},
			[2]uint64{0xf58de13cbcc85680, 0x3c5362fd950efa38}},
		{"stable_l", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, StableL: true},
			[2]uint64{0xf8221aa8d14c29b3, 0xa94e01e1c0cba202}},
		{"ilut_fixed_capture", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, Threshold: lucrtp.FixedThreshold, Mu: 1e-4, CaptureDropped: true},
			[2]uint64{0xc5e2a0af0aad4914, 0xdd937fa7b59b19d1}},
		{"ilut_aggressive", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, Threshold: lucrtp.AggressiveThreshold},
			[2]uint64{0x8d84ee0650e158e9, 0x4dbe96ea413494dd}},
		{"ilut_control", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, Threshold: lucrtp.AutoThreshold, Phi: 1e-9},
			[2]uint64{0x306f96c9a9a67452, 0x1ff1a87d06a4323a}},
		{"discard_reorder_every", driftA(), lucrtp.Options{BlockSize: 8, Tol: 1e-3, DiscardTol: 1, Reorder: lucrtp.ReorderEvery},
			[2]uint64{0x5536b728f81ea34d, 0x30b4131c6ba53cf4}},
	}
	for _, tc := range cases {
		for i, p := range []int{1, 3} {
			r, stats, err := dist.RunRoot(p, dist.DefaultConfig(), func(c *dist.Comm) (*lucrtp.Result, error) {
				return lucrtp.FactorDist(c, tc.a, tc.opts)
			})
			if err != nil {
				t.Fatalf("%s np=%d: %v", tc.name, p, err)
			}
			w := newDriftHash()
			w.u64(luDriftHash(r))
			for _, e := range r.ErrHistory {
				w.u64(math.Float64bits(e))
			}
			if r.Dropped != nil {
				w.csr(r.Dropped)
			}
			w.u64(math.Float64bits(r.DroppedNorm1))
			w.u64(math.Float64bits(r.DroppedNorm2))
			w.ints([]int{r.DroppedNNZ, r.DiscardedCols, r.Iters})
			for _, b := range []bool{r.ControlTriggered, r.HitNumRank, r.Converged} {
				if b {
					w.u64(1)
				} else {
					w.u64(0)
				}
			}
			for _, s := range stats.Ranks {
				for _, v := range []float64{s.Time, s.CommTime, s.ComputeTime, s.LatencyTime, s.BandwidthTime, s.WaitTime} {
					w.u64(math.Float64bits(v))
				}
				for _, k := range s.KOrder {
					w.h.Write([]byte(k))
					w.u64(math.Float64bits(s.Kernels[k]))
				}
				w.ints([]int{s.MsgsSent, s.BytesSent, s.MsgsRecv, s.BytesRecv})
				for _, k := range s.CollOrder {
					cs := s.Collectives[k]
					w.h.Write([]byte(k))
					w.ints([]int{cs.Calls, cs.Msgs, cs.Bytes})
					w.u64(math.Float64bits(cs.Time))
				}
			}
			checkDrift(t, fmt.Sprintf("%s_np%d", tc.name, p), w.sum(), tc.want[i])
		}
	}
}

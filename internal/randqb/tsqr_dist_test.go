package randqb

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
)

func randTall(m, w int, seed int64) *mat.Dense {
	a := mat.NewDense(m, w)
	s := uint64(seed)*2654435761 + 1
	for i := range a.Data {
		s = s*6364136223846793005 + 1442695040888963407
		a.Data[i] = float64(int64(s>>33))/float64(1<<30) - 1
	}
	return a
}

func orthErrQ(q *mat.Dense) float64 {
	g := mat.MulT(q, q)
	g.Sub(mat.Identity(q.Cols))
	return g.InfNorm()
}

func TestDistTSQROrthonormalAndSpanning(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		y := randTall(50, 6, int64(p))
		results := make([]*mat.Dense, p)
		mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
			results[c.Rank()] = distTSQR(c, y, "orth/TSQR", new(tsqrWorkspace))
		})
		for r := 0; r < p; r++ {
			q := results[r]
			if q.Rows != 50 || q.Cols != 6 {
				t.Fatalf("p=%d rank=%d: Q dims %d×%d", p, r, q.Rows, q.Cols)
			}
			if e := orthErrQ(q); e > 1e-10 {
				t.Fatalf("p=%d rank=%d: orthogonality loss %v", p, r, e)
			}
			// Q must span range(y): y = Q(Qᵀy).
			proj := mat.Mul(q, mat.MulT(q, y))
			if !proj.Equal(y, 1e-9) {
				t.Fatalf("p=%d rank=%d: Q does not span range(y)", p, r)
			}
			if r > 0 && !q.Equal(results[0], 0) {
				t.Fatalf("p=%d: ranks disagree on Q", p)
			}
		}
	}
}

func TestDistTSQRDeficientFallback(t *testing.T) {
	// Rank-2 input with 5 requested columns: the deficiency check must
	// fire and the fallback must return a 2-column basis on every rank.
	u := randTall(40, 2, 9)
	v := randTall(5, 2, 10)
	y := mat.MulBT(u, v)
	p := 4
	mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
		q := distTSQR(c, y, "orth/TSQR", new(tsqrWorkspace))
		if q.Cols != 2 {
			t.Errorf("rank %d: fallback basis has %d columns, want 2", c.Rank(), q.Cols)
		}
		if e := orthErrQ(q); e > 1e-10 {
			t.Errorf("rank %d: fallback not orthonormal", c.Rank())
		}
	})
}

func TestDistTSQRZeroColumns(t *testing.T) {
	mustRun(t, 2, dist.DefaultConfig(), func(c *dist.Comm) {
		q := distTSQR(c, mat.NewDense(10, 0), "orth/TSQR", new(tsqrWorkspace))
		if q.Cols != 0 || q.Rows != 10 {
			t.Error("zero-column input mishandled")
		}
	})
}

func TestDistTSQRChargesKernel(t *testing.T) {
	y := randTall(60, 4, 11)
	res := mustRun(t, 4, dist.DefaultConfig(), func(c *dist.Comm) {
		distTSQR(c, y, "orth/TSQR", new(tsqrWorkspace))
	})
	if res.MaxKernels()["orth/TSQR"] <= 0 {
		t.Fatal("TSQR kernel time missing")
	}
	// Real messages flowed: comm time is nonzero.
	comm := 0.0
	for _, s := range res.Ranks {
		comm += s.CommTime
	}
	if comm <= 0 {
		t.Fatal("no communication recorded")
	}
}

// blockHash FNV-hashes a block's shape and the IEEE-754 bits of its
// entries.
func blockHash(h hash.Hash64, q *mat.Dense) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(q.Rows))
	put(uint64(q.Cols))
	for i := 0; i < q.Rows; i++ {
		for _, v := range q.Row(i) {
			put(math.Float64bits(v))
		}
	}
}

// At P = 2 distTSQRLocal factors on its workspace. The input may be the
// previous call's output, altered in place, as in step's
// qk = distTSQRLocal(c, qk, …) after the re-orthogonalization, and a
// rank-deficient panel takes the replicated-Orth fallback, also from an
// aliased input. The hashes cover both ranks' blocks in rank order and
// were recorded on the allocating implementation (a fresh mat.QR, mat.Mul
// and mat.Orth per call), so the workspace changes no bit.
func TestDistTSQRLocalWorkspaceP2(t *testing.T) {
	const m, w = 61, 6
	shift := randTall(m, w, 24)
	// addShift makes the previous output a fresh full-rank panel.
	addShift := func(q *mat.Dense, lo int) {
		q.Add(shift.View(lo, 0, q.Rows, q.Cols))
	}
	// repeatCol0 leaves the previous output rank 3: columns 3..5 repeat
	// column 0.
	repeatCol0 := func(q *mat.Dense, lo int) {
		for i := 0; i < q.Rows; i++ {
			row := q.Row(i)
			row[3], row[4], row[5] = row[0], row[0], row[0]
		}
	}
	full := randTall(m, w, 21)
	deficient := mat.MulBT(randTall(m, 2, 22), randTall(w, 2, 23))
	cases := []struct {
		name  string
		y     *mat.Dense
		alter func(q *mat.Dense, lo int) // nil: one call
		cols  int                        // columns of the result
		want  uint64                     // recorded hash
	}{
		{"full rank", full, nil, w, 0x0e2e4e391b7c7429},
		{"aliased input", full, addShift, w, 0x0dac9403ead46e55},
		{"deficient", deficient, nil, 2, 0x677995ad861e61fd},
		{"deficient aliased input", full, repeatCol0, 3, 0x39d13fd520814e19},
	}
	for _, tc := range cases {
		blocks := make([]*mat.Dense, 2)
		mustRun(t, 2, dist.DefaultConfig(), func(c *dist.Comm) {
			lo, hi := dist.RowShare(m, 2, c.Rank())
			ws := new(tsqrWorkspace)
			q := distTSQRLocal(c, tc.y.View(lo, 0, hi-lo, w).Clone(), m, "orth/TSQR", ws)
			if tc.alter != nil {
				// The Gather/Bcast pair that separates two calls on one
				// workspace in step (a SumReduce there).
				c.Gather(0, nil, 8)
				c.Bcast(0, nil, 8)
				tc.alter(q, lo)
				q = distTSQRLocal(c, q, m, "orth/TSQR", ws)
			}
			blocks[c.Rank()] = q.Clone()
		})
		h := fnv.New64a()
		for r, q := range blocks {
			if q.Cols != tc.cols {
				t.Fatalf("%s: rank %d returned %d columns, want %d", tc.name, r, q.Cols, tc.cols)
			}
			blockHash(h, q)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: blocks hash %016x, want %016x", tc.name, got, tc.want)
		}
	}
}

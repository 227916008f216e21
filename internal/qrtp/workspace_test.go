package qrtp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// refNode and refSelect are the tournament as written before the
// workspace existed: a freshly extracted panel per game, a fresh QRCP
// (QRCPSelect) and freshly allocated champion lists. The workspace
// drivers must pick exactly their winners.
// extractCols gathers the columns cols of a into a fresh dense panel.
func extractCols(a *sparse.CSC, cols []int) *mat.Dense {
	out := mat.NewDense(a.Rows, len(cols))
	a.ExtractColsDenseInto(out, cols)
	return out
}

func refNode(a *sparse.CSC, cand []int, k int) []int {
	if len(cand) <= k {
		return append([]int(nil), cand...)
	}
	_, perm := mat.QRCPSelect(extractCols(a, cand))
	win := make([]int, k)
	for i := range win {
		win[i] = cand[perm[i]]
	}
	return win
}

func refR11(a *sparse.CSC, winners []int, k int) *mat.Dense {
	if len(winners) == 0 {
		return mat.NewDense(0, 0)
	}
	_, r := mat.QR(extractCols(a, winners))
	kk := min(k, len(winners), r.Rows)
	return r.View(0, 0, kk, kk).Clone()
}

func refSelect(a *sparse.CSC, cand []int, k int, tree Tree) Result {
	if len(cand) <= k {
		w := append([]int(nil), cand...)
		return Result{Winners: w, R11: refR11(a, w, k)}
	}
	var champs [][]int
	for j := 0; j < len(cand); j += 2 * k {
		champs = append(champs, refNode(a, cand[j:min(j+2*k, len(cand))], k))
	}
	if tree == Flat {
		for i := 1; i < len(champs); i++ {
			champs[0] = refNode(a, append(append([]int(nil), champs[0]...), champs[i]...), k)
		}
	}
	for len(champs) > 1 {
		var next [][]int
		for i := 0; i < len(champs); i += 2 {
			if i+1 == len(champs) {
				next = append(next, champs[i])
				continue
			}
			next = append(next, refNode(a, append(append([]int(nil), champs[i]...), champs[i+1]...), k))
		}
		champs = next
	}
	return Result{Winners: champs[0], R11: refR11(a, champs[0], k)}
}

// adversarialMatrix is an m×n sparse matrix with the inputs that stress
// pivot ties and empty panels: a run of 2k all-zero columns, scattered
// empty columns, and exact duplicates of earlier columns.
func adversarialMatrix(m, n, k int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	zeroLo := rng.Intn(max(1, n-2*k))
	b := sparse.NewBuilder(m, n)
	col := make([][2][]float64, n) // per column: rows, values
	for j := 0; j < n; j++ {
		switch {
		case j >= zeroLo && j < zeroLo+2*k:
		case rng.Intn(5) == 0:
		case j > 0 && rng.Intn(4) == 0:
			col[j] = col[rng.Intn(j)]
		default:
			for t := rng.Intn(4); t >= 0; t-- {
				col[j][0] = append(col[j][0], float64(rng.Intn(m)))
				col[j][1] = append(col[j][1], rng.NormFloat64())
			}
		}
		for t, i := range col[j][0] {
			b.Add(int(i), j, col[j][1][t])
		}
	}
	return b.ToCSR()
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Winners, want.Winners) {
		t.Fatalf("%s: winners %v, want %v", what, got.Winners, want.Winners)
	}
	g, w := got.R11, want.R11
	if g.Rows != w.Rows || g.Cols != w.Cols {
		t.Fatalf("%s: R11 is %d×%d, want %d×%d", what, g.Rows, g.Cols, w.Rows, w.Cols)
	}
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if math.Float64bits(g.At(i, j)) != math.Float64bits(w.At(i, j)) {
				t.Fatalf("%s: R11[%d,%d] = %v, want %v bit for bit", what, i, j, g.At(i, j), w.At(i, j))
			}
		}
	}
}

// TestWorkspaceMatchesReference reuses one workspace across shrinking
// adversarial matrices (m from above to below 2k) and checks every
// driver against the reference tournament and a fresh workspace.
func TestWorkspaceMatchesReference(t *testing.T) {
	var ws Workspace
	for _, k := range []int{1, 3, 4, 8} {
		for i, m := range []int{70, 40, 2*k + 1, 2 * k, k + 1, 3, 1} {
			a := adversarialMatrix(m, 9*k+5, k, int64(100*k+i)).ToCSC()
			for _, tree := range []Tree{Binary, Flat} {
				all := make([]int, a.Cols)
				for j := range all {
					all[j] = j
				}
				want := refSelect(a, all, k, tree)
				sameResult(t, "reused SelectColumns", ws.SelectColumns(a, k, tree), want)
				sameResult(t, "fresh SelectColumns", SelectColumns(a, k, tree), want)
				// A strided, reversed candidate subset.
				var cand []int
				for j := a.Cols - 1; j >= 0; j -= 2 {
					cand = append(cand, j)
				}
				sameResult(t, "reused SelectColumnsAmong", ws.SelectColumnsAmong(a, cand, k, tree),
					refSelect(a, cand, k, tree))
			}
		}
	}
}

// adversarialQ is a dense m×k matrix with −0 entries, zero rows and
// duplicate rows, the row-tournament input of LU_CRTP.
func adversarialQ(m, k int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	q := mat.NewDense(m, k)
	for i := 0; i < m; i++ {
		switch {
		case rng.Intn(6) == 0:
			for j := 0; j < k; j++ {
				q.Set(i, j, math.Copysign(0, -1))
			}
		case i > 0 && rng.Intn(5) == 0:
			copy(q.Row(i), q.Row(rng.Intn(i)))
		default:
			for j := 0; j < k; j++ {
				v := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					v = math.Copysign(0, -v)
				}
				q.Set(i, j, v)
			}
		}
	}
	return q
}

// roundTrip is the row-tournament input as it was built before rows were
// gathered straight from q: qᵀ through a sparse round trip.
func roundTrip(q *mat.Dense) *sparse.CSC {
	var t sparse.CSR
	sparse.FromDenseInto(&t, q.T(), 0)
	return t.ToCSC()
}

// On one rank the row tournament is the sequential binary tournament
// over all rows.
func TestSelectRowsDenseMatchesRoundTrip(t *testing.T) {
	var ws Workspace
	for _, k := range []int{1, 4, 8} {
		for i, m := range []int{90, 33, 2 * k, k, 1} {
			q := adversarialQ(m, k, int64(10*k+i))
			want := SelectColumns(roundTrip(q), k, Binary).Winners
			got := oneRank(func(c *dist.Comm) Result {
				return ws.SelectRowsDist(c, q, BlockCyclicColumns(m, 1, 0, k), k)
			}).Winners
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d m=%d: rows %v, want %v", k, m, got, want)
			}
		}
	}
}

// TestWorkspaceDistMatchesFresh runs the dist tournaments with one
// workspace per rank reused across calls on shrinking inputs. Winners,
// R11 and every rank's virtual-clock statistics must equal a fresh
// workspace's on the column path and the sparse round trip's on the row
// path; at p=1 the winners are the sequential binary tournament's. Run
// under -race it also checks that ranks never share workspace storage.
func TestWorkspaceDistMatchesFresh(t *testing.T) {
	const k = 4
	for _, p := range []int{1, 2, 3, 4} {
		ws := make([]Workspace, p)
		for i, m := range []int{60, 25, 2 * k, 3} {
			a := adversarialMatrix(m, 11*k+3, k, int64(7*p+i)).ToCSC()
			q := adversarialQ(m+20, k, int64(9*p+i))
			if m == 3 {
				// All −0: the zero pivots reach R₁₁ with the sign the
				// round trip gives them (+0).
				for j := range q.Data {
					q.Data[j] = math.Copysign(0, -1)
				}
			}
			got := make([][2]Result, p)
			want := make([][2]Result, p)
			gotStats := mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
				w := &ws[c.Rank()]
				got[c.Rank()][0] = w.SelectColumnsDist(c, a, BlockCyclicColumns(a.Cols, p, c.Rank(), k), k)
				got[c.Rank()][1] = w.SelectRowsDist(c, q, BlockCyclicColumns(q.Rows, p, c.Rank(), k), k)
			})
			wantStats := mustRun(t, p, dist.DefaultConfig(), func(c *dist.Comm) {
				want[c.Rank()][0] = SelectColumnsDist(c, a, BlockCyclicColumns(a.Cols, p, c.Rank(), k), k)
				want[c.Rank()][1] = new(Workspace).selectDist(c, roundTrip(q), BlockCyclicColumns(q.Rows, p, c.Rank(), k), k, "rowQR_TP")
			})
			for r := 0; r < p; r++ {
				sameResult(t, "dist columns", got[r][0], want[r][0])
				sameResult(t, "dist rows", got[r][1], want[r][1])
			}
			if !reflect.DeepEqual(gotStats.Ranks, wantStats.Ranks) {
				t.Fatalf("p=%d m=%d: virtual-clock stats differ", p, m)
			}
			if p == 1 {
				all := make([]int, a.Cols)
				for j := range all {
					all[j] = j
				}
				sameResult(t, "p=1 columns", got[0][0], refSelect(a, all, k, Binary))
			}
		}
	}
}

// TestNodeWarmAllocatesNothing pins the zero-allocation claim: once the
// workspace has grown to a panel's size, a tournament game allocates
// nothing.
func TestNodeWarmAllocatesNothing(t *testing.T) {
	const k = 8
	a := randCSR(300, 64, 0.05, 11).ToCSC()
	cand := make([]int, 2*k)
	for i := range cand {
		cand[i] = 3 * i
	}
	dst := make([]int, k)
	var ws Workspace
	ws.node(a, cand, k, dst)
	if n := testing.AllocsPerRun(20, func() { ws.node(a, cand, k, dst) }); n != 0 {
		t.Fatalf("warm tournament node allocates %.0f times, want 0", n)
	}
}

// TestSelectColumnsAmongWarmAllocsConstant pins that a warm workspace
// allocates only the returned result (winners and R₁₁), the same small
// count however many candidates play.
func TestSelectColumnsAmongWarmAllocsConstant(t *testing.T) {
	const k = 8
	var counts []float64
	for _, n := range []int{256, 4096} {
		a := randCSR(120, n, 0.03, int64(n)).ToCSC()
		cand := make([]int, n)
		for j := range cand {
			cand[j] = j
		}
		var ws Workspace
		ws.SelectColumnsAmong(a, cand, k, Binary)
		counts = append(counts, testing.AllocsPerRun(5, func() { ws.SelectColumnsAmong(a, cand, k, Binary) }))
	}
	if counts[0] != counts[1] || counts[0] > 16 {
		t.Fatalf("warm SelectColumnsAmong allocs %v for n = 256, 4096; want equal and ≤ 16", counts)
	}
}

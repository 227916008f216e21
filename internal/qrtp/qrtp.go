package qrtp

import (
	"fmt"
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/sparse"
)

// Tree selects the reduction-tree shape of the sequential driver.
type Tree int

const (
	// Binary pairs candidate blocks in a balanced tree.
	Binary Tree = iota
	// Flat merges one candidate block at a time into the running winners.
	Flat
)

// Result of a tournament: the winning column indices (into the original
// matrix), ordered by decreasing pivot magnitude, and the k×k R₁₁ factor
// of the final QRCP on the winners. R11.At(0,0) realizes the bound
// |R⁽¹⁾(1,1)| ≤ ‖A‖₂ used for the ILUT_CRTP threshold (eq 23).
type Result struct {
	Winners []int
	R11     *mat.Dense
}

// source is a matrix whose columns a tournament plays: a sparse CSC
// matrix for column tournaments, or rowsOf(Q_k) for LU_CRTP's row
// tournament on Q_kᵀ.
type source interface {
	Dims() (r, c int)
	// ExtractColsDenseInto overwrites dst (Rows×len(cols)) with the
	// selected columns.
	ExtractColsDenseInto(dst *mat.Dense, cols []int)
	// ColsNNZ counts the stored entries of the selected columns (the
	// dist flop model's panel size).
	ColsNNZ(cols []int) int
}

// rowsOf presents the rows of a dense matrix q as the columns of qᵀ. Its
// panels and nonzero counts are those of sparse.FromDense(q.T(), 0).ToCSC()
// bit for bit: entries that round trip would drop (±0, NaN) read as +0.
type rowsOf struct{ q *mat.Dense }

func (s rowsOf) Dims() (r, c int) { return s.q.Cols, s.q.Rows }

func (s rowsOf) ExtractColsDenseInto(dst *mat.Dense, rows []int) {
	if dst.Rows != s.q.Cols || dst.Cols != len(rows) {
		panic(fmt.Sprintf("qrtp: row panel %d×%d, want %d×%d", dst.Rows, dst.Cols, s.q.Cols, len(rows)))
	}
	for p, r := range rows {
		for i, v := range s.q.Row(r) {
			if !(math.Abs(v) > 0) {
				v = 0
			}
			dst.Data[i*dst.Stride+p] = v
		}
	}
}

func (s rowsOf) ColsNNZ(rows []int) int {
	n := 0
	for _, r := range rows {
		for _, v := range s.q.Row(r) {
			if math.Abs(v) > 0 {
				n++
			}
		}
	}
	return n
}

// Workspace is the grow-only storage of QR tournaments: the compact panel
// a game factors, the QRCP vectors, the QR of the final R₁₁, and the
// champion and merge slices.
// In steady state a game allocates nothing, and its pivots are bitwise
// those of mat.QRCP on the same panel. A workspace is not safe for
// concurrent use: a solve owns one, and in the dist runtime every rank
// owns its own. The zero value is ready to use.
type Workspace struct {
	panel                     mat.Buffer
	qr                        mat.QRWorkspace // finalR11's in-place QR
	tau, norms, orig, scratch []float64
	perm                      []int
	ids                       []int // 0..n−1 for whole-matrix tournaments
	champ                     []int // champion slots of k ids each
	champLen                  []int
	merge                     []int // two champions concatenated
	win                       []int // running winners of the dist global rounds
}

// identity returns 0..n−1 in workspace storage.
func (ws *Workspace) identity(n int) []int {
	ws.ids = mat.Grow(ws.ids, n)
	for j := range ws.ids {
		ws.ids[j] = j
	}
	return ws.ids
}

// node plays the tournament game at one tree node: QRCP on the candidate
// columns of a and selection of the first k pivots, written to dst
// (cap ≥ k, not aliasing cand). At most k candidates all win.
func (ws *Workspace) node(a source, cand []int, k int, dst []int) []int {
	if len(cand) <= k {
		return append(dst[:0], cand...)
	}
	m, _ := a.Dims()
	c := len(cand)
	panel := ws.panel.Shape(m, c)
	a.ExtractColsDenseInto(panel, cand)
	ws.tau = mat.Grow(ws.tau, min(m, c))
	ws.norms = mat.Grow(ws.norms, c)
	ws.orig = mat.Grow(ws.orig, c)
	ws.scratch = mat.Grow(ws.scratch, c)
	ws.perm = mat.Grow(ws.perm, c)
	mat.QRCPInPlace(panel, ws.tau, ws.norms, ws.orig, ws.scratch, ws.perm)
	dst = dst[:k]
	for i := range dst {
		dst[i] = cand[ws.perm[i]]
	}
	return dst
}

// slot returns champion slot s (capacity k).
func (ws *Workspace) slot(s, k int) []int { return ws.champ[s*k : s*k+k : s*k+k] }

// tournament reduces more than k candidates to k winners: leaves of 2k
// consecutive candidates, then the given tree over their champions.
// charge, when non-nil, sees every game's candidates before it is
// played. The winners alias workspace storage.
func (ws *Workspace) tournament(a source, cand []int, k int, tree Tree, charge func([]int)) []int {
	blockW := 2 * k
	leaves := (len(cand) + blockW - 1) / blockW
	ws.champ = mat.Grow(ws.champ, leaves*k)
	ws.champLen = mat.Grow(ws.champLen, leaves)
	ws.merge = mat.Grow(ws.merge, 2*k)
	champ := func(s int) []int { return ws.champ[s*k : s*k+ws.champLen[s]] }
	play := func(s int, cand []int) {
		if charge != nil {
			charge(cand)
		}
		ws.champLen[s] = len(ws.node(a, cand, k, ws.slot(s, k)))
	}
	for s := 0; s < leaves; s++ {
		play(s, cand[s*blockW:min((s+1)*blockW, len(cand))])
	}
	switch tree {
	case Binary:
		// Level by level in place: the pair (i, i+1) lands in slot i/2,
		// which no later pair of the level reads.
		for n := leaves; n > 1; n = (n + 1) / 2 {
			for i := 0; i < n; i += 2 {
				if i+1 == n {
					ws.champLen[i/2] = copy(ws.slot(i/2, k), champ(i))
					continue
				}
				play(i/2, append(append(ws.merge[:0], champ(i)...), champ(i+1)...))
			}
		}
	case Flat:
		for s := 1; s < leaves; s++ {
			play(0, append(append(ws.merge[:0], champ(0)...), champ(s)...))
		}
	default:
		panic("qrtp: unknown tree kind")
	}
	return champ(0)
}

// finalR11 computes the R factor of a plain QR on the winner panel,
// trimmed to k×k.
func (ws *Workspace) finalR11(a source, winners []int, k int) *mat.Dense {
	if len(winners) == 0 {
		return mat.NewDense(0, 0)
	}
	m, _ := a.Dims()
	panel := ws.panel.Shape(m, len(winners))
	a.ExtractColsDenseInto(panel, winners)
	ws.qr.FactorR(panel)
	kk := min(k, len(winners), m)
	return mat.UpperRows(panel, kk, kk)
}

// SelectColumns runs a sequential tournament over all columns of a and
// returns the k winners together with R₁₁. Blocks of 2k columns feed the
// leaves. If a has at most k columns all of them win.
func (ws *Workspace) SelectColumns(a *sparse.CSC, k int, tree Tree) Result {
	_, n := a.Dims()
	return ws.SelectColumnsAmong(a, ws.identity(n), k, tree)
}

// SelectColumnsAmong runs the sequential tournament restricted to the
// candidate column ids cand (ascending or not). It backs the
// column-discarding enhancement of Cayrols (the paper's ref [2]):
// columns known to be negligible are excluded from the tournament,
// cutting its cost, while remaining part of the matrix. If cand has at
// most k entries they all win. The result owns its storage.
func (ws *Workspace) SelectColumnsAmong(a *sparse.CSC, cand []int, k int, tree Tree) Result {
	if k <= 0 {
		panic(fmt.Sprintf("qrtp: non-positive k = %d", k))
	}
	winners := cand
	if len(cand) > k {
		winners = ws.tournament(a, cand, k, tree, nil)
	}
	winners = append([]int(nil), winners...)
	return Result{Winners: winners, R11: ws.finalR11(a, winners, k)}
}

// SelectColumns runs SelectColumns on a fresh workspace.
func SelectColumns(a *sparse.CSC, k int, tree Tree) Result {
	return new(Workspace).SelectColumns(a, k, tree)
}

// Permutation expands a winner list into a full column permutation of an
// n-column matrix: winners first (in order), then the remaining columns
// in ascending order. perm[j] = original index of new column j.
func Permutation(winners []int, n int) []int {
	return PermutationInto(make([]int, n), make([]bool, n), winners)
}

// PermutationInto is Permutation into caller-owned storage: it writes the
// permutation of a len(perm)-column matrix into perm, marking taken
// columns in taken (same length), and returns perm.
func PermutationInto(perm []int, taken []bool, winners []int) []int {
	n := len(perm)
	clear(taken)
	p := 0
	for _, w := range winners {
		if w < 0 || w >= n || taken[w] {
			panic("qrtp: invalid winner list")
		}
		taken[w] = true
		perm[p] = w
		p++
	}
	for j := 0; j < n; j++ {
		if !taken[j] {
			perm[p] = j
			p++
		}
	}
	return perm
}

// nodeFlops estimates the arithmetic cost of a tournament game on c
// candidate columns holding nnzPanel stored entries, following the sparse
// panel-QR cost model of the paper's §IV (O(k²·nnz) per tournament with
// blocks of 2k columns).
func nodeFlops(k, c, nnzPanel int) float64 {
	return 4*float64(k)*float64(nnzPanel) + 8*float64(k)*float64(k)*float64(c)
}

// SelectColumnsDist runs QR_TP over the dist runtime. Columns are block-
// cyclically pre-assigned: rank r owns the global column ids in myCols.
// Every rank returns the same Result. The matrix itself is shared-memory
// readable by all ranks (the dist layer models the communication the real
// implementation would perform: winner panels travel up a binary tree).
func (ws *Workspace) SelectColumnsDist(c *dist.Comm, a *sparse.CSC, myCols []int, k int) Result {
	return ws.selectDist(c, a, myCols, k, "colQR_TP")
}

// SelectRowsDist is the distributed row tournament of LU_CRTP: QR_TP over
// the rows of q (the columns of qᵀ, gathered straight from q), rank r
// owning the row ids in myRows, under the kernel label "rowQR_TP".
func (ws *Workspace) SelectRowsDist(c *dist.Comm, q *mat.Dense, myRows []int, k int) Result {
	return ws.selectDist(c, rowsOf{q}, myRows, k, "rowQR_TP")
}

// SelectColumnsDist runs SelectColumnsDist on a fresh workspace.
func SelectColumnsDist(c *dist.Comm, a *sparse.CSC, myCols []int, k int) Result {
	return new(Workspace).SelectColumnsDist(c, a, myCols, k)
}

func (ws *Workspace) selectDist(c *dist.Comm, a source, myCols []int, k int, label string) Result {
	const (
		tagWinners = 101
		tagPanel   = 102
	)
	p := c.Size()
	if c.Tracing() {
		c.Annotate(label + " tournament")
	}
	// Local round (communication-free): tournament over the owned
	// columns using leaves of 2k.
	winners := ws.localTournament(c, a, myCols, k, label+"/local")
	// Global binary reduction.
	ws.win = mat.Grow(ws.win, k)
	for stride := 1; stride < p; stride <<= 1 {
		if c.Rank()%(2*stride) == 0 {
			partner := c.Rank() + stride
			if partner < p {
				theirs := c.Recv(partner, tagWinners).([]int)
				// Model the transfer of the partner's winner panel.
				_ = c.Recv(partner, tagPanel)
				ws.merge = mat.Grow(ws.merge, 2*k)
				merged := append(append(ws.merge[:0], winners...), theirs...)
				nnzPanel := a.ColsNNZ(merged)
				c.Compute(nodeFlops(k, len(merged), nnzPanel), label+"/global")
				winners = ws.node(a, merged, k, ws.win)
			}
		} else if c.Rank()%(2*stride) == stride {
			partner := c.Rank() - stride
			// Send a copy: winners is workspace storage of this rank.
			c.Send(partner, tagWinners, append([]int(nil), winners...), 8*len(winners))
			// The winner columns themselves (sparse payload: index+value
			// per entry).
			c.Send(partner, tagPanel, nil, 12*a.ColsNNZ(winners))
			break
		}
	}
	// Rank 0 finalizes R11 and broadcasts the result.
	var res Result
	if c.Rank() == 0 {
		nnzW := a.ColsNNZ(winners)
		c.Compute(nodeFlops(k, len(winners), nnzW), label+"/finalR")
		winners = append([]int(nil), winners...)
		res = Result{Winners: winners, R11: ws.finalR11(a, winners, k)}
	}
	kk := k
	out := c.Bcast(0, res, 8*kk+8*kk*kk)
	return out.(Result)
}

// localTournament selects k champions among the owned columns, charging
// the flops of every game to the given kernel label. The champions alias
// workspace storage (or myCols when it has at most k entries).
func (ws *Workspace) localTournament(c *dist.Comm, a source, myCols []int, k int, label string) []int {
	charge := func(cols []int) {
		c.Compute(nodeFlops(k, len(cols), a.ColsNNZ(cols)), label)
	}
	if len(myCols) <= k {
		charge(myCols)
		return myCols
	}
	return ws.tournament(a, myCols, k, Binary, charge)
}

// BlockCyclicColumns returns the column ids owned by the given rank under
// a block-cyclic distribution with the given block width.
func BlockCyclicColumns(n, p, rank, block int) []int {
	owned := 0
	for start := rank * block; start < n; start += p * block {
		owned += min(block, n-start)
	}
	return AppendBlockCyclic(make([]int, 0, owned), n, p, rank, block)
}

// AppendBlockCyclic appends BlockCyclicColumns(n, p, rank, block) to dst.
func AppendBlockCyclic(dst []int, n, p, rank, block int) []int {
	for start := rank * block; start < n; start += p * block {
		for j := start; j < start+block && j < n; j++ {
			dst = append(dst, j)
		}
	}
	return dst
}

package sparse

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"sparselr/internal/mat"
)

// CSR is a compressed sparse row matrix. Column indices within each row
// are stored in strictly increasing order.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColIdx     []int // length NNZ
	Val        []float64
}

// NewCSR returns an empty (all-zero) r×c matrix.
func NewCSR(r, c int) *CSR {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %d×%d", r, c))
	}
	return &CSR{Rows: r, Cols: c, RowPtr: make([]int, r+1)}
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Dims returns the matrix dimensions.
func (a *CSR) Dims() (r, c int) { return a.Rows, a.Cols }

// Density returns NNZ / (Rows·Cols), the fill measure of Fig 1.
func (a *CSR) Density() float64 {
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	return float64(a.NNZ()) / (float64(a.Rows) * float64(a.Cols))
}

// RowView returns the column indices and values of row i, aliasing the
// underlying storage.
func (a *CSR) RowView(i int) (cols []int, vals []float64) {
	s, e := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[s:e], a.Val[s:e]
}

// At returns element (i, j) by binary search within the row.
func (a *CSR) At(i, j int) float64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %d×%d", i, j, a.Rows, a.Cols))
	}
	cols, vals := a.RowView(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	return &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
}

// ToDense expands the matrix to dense storage.
func (a *CSR) ToDense() *mat.Dense {
	d := mat.NewDense(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		row := d.Row(i)
		for k, j := range cols {
			row[j] = vals[k]
		}
	}
	return d
}

// FromDense builds a CSR matrix keeping entries with |v| > tol.
// tol = 0 keeps all exact nonzeros.
func FromDense(d *mat.Dense, tol float64) *CSR {
	a := NewCSR(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if math.Abs(v) > tol {
				a.ColIdx = append(a.ColIdx, j)
				a.Val = append(a.Val, v)
			}
		}
		a.RowPtr[i+1] = len(a.Val)
	}
	return a
}

// FrobNorm returns the Frobenius norm.
func (a *CSR) FrobNorm() float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range a.Val {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			ssq = 1 + ssq*(scale/av)*(scale/av)
			scale = av
		} else {
			ssq += (av / scale) * (av / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobNorm2 returns the squared Frobenius norm.
func (a *CSR) FrobNorm2() float64 {
	var s float64
	for _, v := range a.Val {
		s += v * v
	}
	return s
}

// MaxAbs returns the largest absolute entry.
func (a *CSR) MaxAbs() float64 {
	var m float64
	for _, v := range a.Val {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// ColNorms2 returns the squared Euclidean norm of each column.
func (a *CSR) ColNorms2() []float64 {
	out := make([]float64, a.Cols)
	for k, j := range a.ColIdx {
		out[j] += a.Val[k] * a.Val[k]
	}
	return out
}

// Transpose returns Aᵀ as a CSR matrix (equivalently, A reinterpreted in
// CSC). Linear time in NNZ.
func (a *CSR) Transpose() *CSR {
	t := NewCSR(a.Cols, a.Rows)
	t.ColIdx = make([]int, a.NNZ())
	t.Val = make([]float64, a.NNZ())
	// Count entries per column of a.
	counts := make([]int, a.Cols)
	for _, j := range a.ColIdx {
		counts[j]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] = t.RowPtr[j] + counts[j]
	}
	next := append([]int(nil), t.RowPtr[:a.Cols]...)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = vals[k]
			next[j]++
		}
	}
	return t
}

// Parallel thresholds and cache-blocking parameters for the sparse
// kernels (see DESIGN.md §4b "Sparse kernel tuning" for the retune
// protocol). Products whose multiply-add count (nnz × dense width, or
// the Gustavson flop count for SpGEMM) fall below the thresholds stay on
// the serial path, where dispatch would cost more than it saves.
const (
	spmmParallelThreshold   = 1 << 15
	spgemmParallelThreshold = 1 << 16
	// residualBlockFloats bounds the pooled block of residual rows that
	// ResidualFrobNorm forms in parallel before summing it in order.
	residualBlockFloats = 1 << 16
	// spmmColBlockMin / spmmCacheBudget shape the MulDense column
	// blocking: when a pass over all of B would stream more than the
	// budget, B is processed in column blocks sized to fit it (never
	// narrower than the minimum — measured on the 20000×64 circuit
	// SpMM, blocks below 64 columns lose more to the repeated CSR
	// traversal than the dense locality wins back).
	spmmColBlockMin = 64
	spmmCacheBudget = 1 << 23
	// spmmTMinStrip / spmmTStripBudget shape the MulTDense output
	// strips: each pass owns the widest multiple-of-8 column strip whose
	// a.Cols×w output footprint stays under the budget (never narrower
	// than the minimum), so the scatter destination is cache-resident
	// instead of thrashing a full a.Cols×b.Cols panel. The parallel path
	// may narrow strips below the serial floor — down to spmmTMinStrip —
	// to keep every worker busy; the CSR re-reads that costs are served
	// from the shared cache.
	spmmTMinStrip       = 8
	spmmTSerialMinStrip = 32
	spmmTStripBudget    = 1 << 24
)

// MulDense returns A·B for dense B. Large products run row-parallel on
// the shared kernel pool with nnz-balanced row chunks (RowChunksByNNZ),
// so power-law row distributions no longer serialize on their hub rows;
// every output row is written by exactly one worker in the serial
// accumulation order, so the result is bitwise identical to the serial
// path at any GOMAXPROCS.
func (a *CSR) MulDense(b *mat.Dense) *mat.Dense {
	if a.Cols != b.Rows {
		panic("sparse: MulDense dimension mismatch")
	}
	out := mat.NewDense(a.Rows, b.Cols)
	a.mulDenseBody(out, b)
	return out
}

// MulDenseInto computes dst = A·B, overwriting dst. It is the
// allocation-free form of MulDense for workspace callers; dst need not
// be zeroed first (the kernel zeroes each output block immediately
// before accumulating into it, saving the separate full-matrix pass).
// The value written is bitwise identical to MulDense's.
func (a *CSR) MulDenseInto(dst *mat.Dense, b *mat.Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("sparse: MulDenseInto dimension mismatch")
	}
	a.mulDenseBody(dst, b)
}

// mulDenseBody computes A·B into out (contents ignored) with the shared
// serial/parallel branching.
func (a *CSR) mulDenseBody(out, b *mat.Dense) {
	if a.NNZ()*b.Cols < spmmParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		a.mulDenseRows(out, b, 0, a.Rows)
		return
	}
	a.ParallelRowsByNNZ(func(lo, hi int) {
		a.mulDenseRows(out, b, lo, hi)
	})
}

// mulDenseRows computes rows [lo, hi) of out = A·B, cache-blocked over
// B's columns. Each output segment is zeroed on first touch and then
// accumulated in ascending-k order — the same per-element summation as
// an unblocked pass over a pre-zeroed destination, so blocking changes
// no bits.
func (a *CSR) mulDenseRows(out, b *mat.Dense, lo, hi int) {
	if b.Cols == 0 {
		return
	}
	block := b.Cols
	if b.Rows > 0 && b.Rows*b.Cols*8 > spmmCacheBudget {
		block = spmmCacheBudget / (8 * b.Rows)
		if block < spmmColBlockMin {
			block = spmmColBlockMin
		}
		if block > b.Cols {
			block = b.Cols
		}
	}
	for blo := 0; blo < b.Cols; blo += block {
		bhi := min(blo+block, b.Cols)
		for i := lo; i < hi; i++ {
			cols, vals := a.RowView(i)
			orow := out.Row(i)[blo:bhi]
			for c := range orow {
				orow[c] = 0
			}
			for k, j := range cols {
				v := vals[k]
				brow := b.Row(j)[blo:bhi]
				for c, bv := range brow {
					orow[c] += v * bv
				}
			}
		}
	}
}

// MulTDense returns Aᵀ·B for dense B without forming the transpose.
// The scatter pattern (row i of A touches arbitrary output rows) makes a
// row split race, so the work is split over *output column strips*
// instead: each strip owns disjoint columns of the result and replays
// the full CSR traversal restricted to its columns. Every output element
// is accumulated in exactly the serial row order, so the result is
// bitwise identical to the serial path at any GOMAXPROCS — a stronger
// contract than the historical per-chunk-accumulator path, which only
// matched serial to rounding and burned a zero+merge pass per worker.
func (a *CSR) MulTDense(b *mat.Dense) *mat.Dense {
	if a.Rows != b.Rows {
		panic("sparse: MulTDense dimension mismatch")
	}
	out := mat.NewDense(a.Cols, b.Cols)
	a.mulTDenseBody(out, b)
	return out
}

// MulTDenseInto computes dst = Aᵀ·B, overwriting dst. It is the
// allocation-free form of MulTDense for workspace callers; dst need not
// be zeroed first (each column strip zeroes itself before its scatter
// pass). The value written is bitwise identical to MulTDense's.
func (a *CSR) MulTDenseInto(dst *mat.Dense, b *mat.Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("sparse: MulTDenseInto dimension mismatch")
	}
	a.mulTDenseBody(dst, b)
}

// mulTDenseBody computes Aᵀ·B into out (contents ignored) with the
// shared serial/parallel branching over output column strips.
func (a *CSR) mulTDenseBody(out, b *mat.Dense) {
	if b.Cols == 0 {
		return
	}
	w := tStripWidth(a.Cols, b.Cols)
	if a.NNZ()*b.Cols < spmmParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		for lo := 0; lo < b.Cols; lo += w {
			a.mulTDenseStrip(out, b, lo, min(lo+w, b.Cols))
		}
		return
	}
	// Narrow the strips further when the budget-derived width would
	// leave workers idle; the result is strip-width-independent, so the
	// GOMAXPROCS-dependent choice costs no determinism.
	if maxW := (b.Cols / (2 * runtime.GOMAXPROCS(0))) &^ (spmmTMinStrip - 1); maxW >= spmmTMinStrip && w > maxW {
		w = maxW
	}
	mat.ParallelFor(b.Cols, w, func(lo, hi int) {
		a.mulTDenseStrip(out, b, lo, hi)
	})
}

// tStripWidth returns the widest multiple-of-spmmTMinStrip column strip
// whose aCols×w output footprint stays within spmmTStripBudget.
func tStripWidth(aCols, bCols int) int {
	if aCols <= 0 {
		return bCols
	}
	w := (spmmTStripBudget / (8 * aCols)) &^ (spmmTMinStrip - 1)
	if w < spmmTSerialMinStrip {
		w = spmmTSerialMinStrip
	}
	if w > bCols {
		w = bCols
	}
	return w
}

// mulTDenseStrip computes out[:, lo:hi] = (Aᵀ·B)[:, lo:hi]: the strip is
// zeroed, then the full CSR traversal scatter-accumulates the restricted
// B columns in ascending row order.
func (a *CSR) mulTDenseStrip(out, b *mat.Dense, lo, hi int) {
	for j := 0; j < a.Cols; j++ {
		orow := out.Row(j)[lo:hi]
		for c := range orow {
			orow[c] = 0
		}
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		if len(cols) == 0 {
			continue
		}
		brow := b.Row(i)[lo:hi]
		for k, j := range cols {
			v := vals[k]
			orow := out.Row(j)[lo:hi]
			for c, bv := range brow {
				orow[c] += v * bv
			}
		}
	}
}

// MulVec returns A·x.
func (a *CSR) MulVec(x []float64) []float64 {
	if a.Cols != len(x) {
		panic("sparse: MulVec dimension mismatch")
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		out[i] = s
	}
	return out
}

// ResidualFrobNorm returns ‖A − L·R‖_F for dense factors L (m×k) and
// R (k×n) without densifying A: each CSR row is streamed against the
// corresponding row of the factor product, so peak memory is O(n) per
// row in flight instead of the O(m·n) an explicit residual would need.
// Large residuals form their rows in parallel, one bounded block of rows
// at a time into pooled scratch, and then add the squares serially in
// ascending row order, so the result equals the serial path bit for bit
// at any GOMAXPROCS.
func (a *CSR) ResidualFrobNorm(l, r *mat.Dense) float64 {
	if l.Rows != a.Rows || r.Cols != a.Cols || l.Cols != r.Rows {
		panic("sparse: ResidualFrobNorm dimension mismatch")
	}
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	// residualRow writes row i of L·R − A into row.
	residualRow := func(i int, row []float64) {
		for j := range row {
			row[j] = 0
		}
		// row = (L·R)_i, accumulated in ascending k order.
		lrow := l.Row(i)
		for k, lv := range lrow {
			if lv == 0 {
				continue
			}
			rrow := r.Row(k)
			for j, rv := range rrow {
				row[j] += lv * rv
			}
		}
		// Subtract the sparse row: row = (L·R − A)_i.
		cols, vals := a.RowView(i)
		for k, j := range cols {
			row[j] -= vals[k]
		}
	}
	n := a.Cols
	blockRows := 1
	work := a.Rows * a.Cols * l.Cols
	if nw := runtime.GOMAXPROCS(0); work >= spmmParallelThreshold && nw > 1 {
		blockRows = min(a.Rows, max(residualBlockFloats/n, nw))
	}
	buf := mat.GetScratch(blockRows * n)
	blk := *buf
	var s float64
	var lo int
	fill := func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			residualRow(lo+i, blk[i*n:(i+1)*n])
		}
	}
	for lo = 0; lo < a.Rows; lo += blockRows {
		hi := min(lo+blockRows, a.Rows)
		mat.ParallelFor(hi-lo, 1, fill)
		for _, v := range blk[:(hi-lo)*n] {
			s += v * v
		}
	}
	mat.PutScratch(buf)
	return math.Sqrt(s)
}

// SpGEMM returns the sparse product A·B using Gustavson's row-merge
// algorithm. Entries whose accumulated value is exactly zero are dropped.
// Large products run row-parallel with *flop-balanced* chunks: the row
// ranges are cut in the prefix sum of per-row Gustavson flop counts
// (chunksByPrefix), so one dense hub row of A no longer serializes the
// product. Each chunk owns a private sparse accumulator and the per-chunk
// results are concatenated in row order. Every output row is computed
// with exactly the serial per-row merge order, so the parallel result is
// bitwise identical to the serial one.
func SpGEMM(a, b *CSR) *CSR {
	if a.Cols != b.Rows {
		panic("sparse: SpGEMM dimension mismatch")
	}
	if runtime.GOMAXPROCS(0) < 2 || SpGEMMFlops(a, b) < spgemmParallelThreshold {
		return spGEMMSerial(a, b)
	}
	// Per-row flop prefix: row i of the product costs Σ nnz(B row j)
	// over the stored a_ij.
	rowLen := make([]int, b.Rows)
	for i := 0; i < b.Rows; i++ {
		rowLen[i] = b.RowPtr[i+1] - b.RowPtr[i]
	}
	pf := make([]int, a.Rows+1)
	for i := 0; i < a.Rows; i++ {
		f := 0
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			f += rowLen[j]
		}
		pf[i+1] = pf[i] + f
	}
	bounds := chunksByPrefix(pf, runtime.GOMAXPROCS(0))
	nchunks := len(bounds) - 1
	type chunkOut struct {
		colIdx []int
		val    []float64
		rowNNZ []int
	}
	results := make([]chunkOut, nchunks)
	mat.ParallelFor(nchunks, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := bounds[c], bounds[c+1]
			if lo >= hi {
				continue
			}
			co := chunkOut{rowNNZ: make([]int, hi-lo)}
			acc := make([]float64, b.Cols)
			mark := make([]int, b.Cols)
			for i := range mark {
				mark[i] = -1
			}
			pattern := make([]int, 0, 64)
			for i := lo; i < hi; i++ {
				pattern = spGEMMRow(a, b, i, acc, mark, pattern[:0])
				n0 := len(co.val)
				for _, j := range pattern {
					if acc[j] != 0 {
						co.colIdx = append(co.colIdx, j)
						co.val = append(co.val, acc[j])
					}
				}
				co.rowNNZ[i-lo] = len(co.val) - n0
			}
			results[c] = co
		}
	})
	out := NewCSR(a.Rows, b.Cols)
	total := 0
	for _, co := range results {
		total += len(co.val)
	}
	out.ColIdx = make([]int, 0, total)
	out.Val = make([]float64, 0, total)
	row := 0
	for _, co := range results {
		out.ColIdx = append(out.ColIdx, co.colIdx...)
		out.Val = append(out.Val, co.val...)
		for _, nnz := range co.rowNNZ {
			out.RowPtr[row+1] = out.RowPtr[row] + nnz
			row++
		}
	}
	return out
}

// spGEMMRow merges row i of A·B into the sparse accumulator (acc, mark)
// and returns the (sorted) pattern of touched columns.
func spGEMMRow(a, b *CSR, i int, acc []float64, mark []int, pattern []int) []int {
	acols, avals := a.RowView(i)
	for k, j := range acols {
		av := avals[k]
		bcols, bvals := b.RowView(j)
		for kk, jj := range bcols {
			if mark[jj] != i {
				mark[jj] = i
				acc[jj] = 0
				pattern = append(pattern, jj)
			}
			acc[jj] += av * bvals[kk]
		}
	}
	sort.Ints(pattern)
	return pattern
}

// spGEMMSerial is the single-threaded Gustavson product, also the
// reference for the parallel-equivalence tests.
func spGEMMSerial(a, b *CSR) *CSR {
	out := NewCSR(a.Rows, b.Cols)
	// Dense accumulator (SPA) reused across rows.
	acc := make([]float64, b.Cols)
	mark := make([]int, b.Cols)
	for i := range mark {
		mark[i] = -1
	}
	pattern := make([]int, 0, 64)
	for i := 0; i < a.Rows; i++ {
		pattern = spGEMMRow(a, b, i, acc, mark, pattern[:0])
		for _, j := range pattern {
			if acc[j] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// SpGEMMFlops returns the multiply-add count Gustavson's algorithm
// performs for A·B (Σ over stored a_ij of nnz(row j of B)), used by the
// virtual-time cost model.
func SpGEMMFlops(a, b *CSR) float64 {
	if a.Cols != b.Rows {
		panic("sparse: SpGEMMFlops dimension mismatch")
	}
	rowLen := make([]int, b.Rows)
	for i := 0; i < b.Rows; i++ {
		rowLen[i] = b.RowPtr[i+1] - b.RowPtr[i]
	}
	var f float64
	for _, j := range a.ColIdx {
		f += float64(rowLen[j])
	}
	return 2 * f
}

// Add returns alpha·A + beta·B. Entries that cancel exactly are dropped.
func Add(alpha float64, a *CSR, beta float64, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("sparse: Add shape mismatch")
	}
	out := NewCSR(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		ac, av := a.RowView(i)
		bc, bv := b.RowView(i)
		ka, kb := 0, 0
		for ka < len(ac) || kb < len(bc) {
			var j int
			var v float64
			switch {
			case kb >= len(bc) || (ka < len(ac) && ac[ka] < bc[kb]):
				j, v = ac[ka], alpha*av[ka]
				ka++
			case ka >= len(ac) || bc[kb] < ac[ka]:
				j, v = bc[kb], beta*bv[kb]
				kb++
			default:
				j, v = ac[ka], alpha*av[ka]+beta*bv[kb]
				ka++
				kb++
			}
			if v != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// PermuteRows returns P·A where row i of the result is row perm[i] of A.
func (a *CSR) PermuteRows(perm []int) *CSR {
	if len(perm) != a.Rows {
		panic("sparse: PermuteRows length mismatch")
	}
	out := NewCSR(a.Rows, a.Cols)
	nnz := 0
	for i, p := range perm {
		nnz += a.RowPtr[p+1] - a.RowPtr[p]
		out.RowPtr[i+1] = nnz
	}
	out.ColIdx = make([]int, nnz)
	out.Val = make([]float64, nnz)
	for i, p := range perm {
		s, e := a.RowPtr[p], a.RowPtr[p+1]
		copy(out.ColIdx[out.RowPtr[i]:out.RowPtr[i+1]], a.ColIdx[s:e])
		copy(out.Val[out.RowPtr[i]:out.RowPtr[i+1]], a.Val[s:e])
	}
	return out
}

// PermuteCols returns A·P where column j of the result is column perm[j]
// of A. Column indices within each row are re-sorted.
func (a *CSR) PermuteCols(perm []int) *CSR {
	if len(perm) != a.Cols {
		panic("sparse: PermuteCols length mismatch")
	}
	// inv maps old column index → new position.
	inv := make([]int, a.Cols)
	for newj, oldj := range perm {
		inv[oldj] = newj
	}
	out := a.Clone()
	type ent struct {
		j int
		v float64
	}
	buf := make([]ent, 0, 64)
	for i := 0; i < a.Rows; i++ {
		s, e := out.RowPtr[i], out.RowPtr[i+1]
		buf = buf[:0]
		for k := s; k < e; k++ {
			buf = append(buf, ent{inv[out.ColIdx[k]], out.Val[k]})
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].j < buf[y].j })
		for k := s; k < e; k++ {
			out.ColIdx[k] = buf[k-s].j
			out.Val[k] = buf[k-s].v
		}
	}
	return out
}

// ExtractBlock returns the submatrix with rows [r0, r1) and columns
// [c0, c1) as a new CSR matrix.
func (a *CSR) ExtractBlock(r0, r1, c0, c1 int) *CSR {
	if r0 < 0 || r1 > a.Rows || c0 < 0 || c1 > a.Cols || r0 > r1 || c0 > c1 {
		panic("sparse: ExtractBlock range out of bounds")
	}
	out := NewCSR(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		cols, vals := a.RowView(i)
		// Binary search for the first column ≥ c0.
		lo := sort.SearchInts(cols, c0)
		for k := lo; k < len(cols) && cols[k] < c1; k++ {
			out.ColIdx = append(out.ColIdx, cols[k]-c0)
			out.Val = append(out.Val, vals[k])
		}
		out.RowPtr[i-r0+1] = len(out.Val)
	}
	return out
}

// ExtractRows gathers the given rows, in order, into a new
// len(rows)×n CSR matrix (the R factor of a CUR decomposition: actual
// rows of A, kept sparse).
func (a *CSR) ExtractRows(rows []int) *CSR {
	out := NewCSR(len(rows), a.Cols)
	for p, i := range rows {
		if i < 0 || i >= a.Rows {
			panic("sparse: ExtractRows row out of range")
		}
		cols, vals := a.RowView(i)
		out.ColIdx = append(out.ColIdx, cols...)
		out.Val = append(out.Val, vals...)
		out.RowPtr[p+1] = len(out.Val)
	}
	return out
}

// ExtractCols gathers the given columns, in order, into a new
// m×len(cols) CSR matrix (the C factor of a CUR decomposition: actual
// columns of A, kept sparse). Column indices within each output row are
// sorted, preserving the CSR invariant even when cols is unordered.
func (a *CSR) ExtractCols(cols []int) *CSR {
	inv := make([]int, a.Cols)
	for j := range inv {
		inv[j] = -1
	}
	for p, j := range cols {
		if j < 0 || j >= a.Cols {
			panic("sparse: ExtractCols column out of range")
		}
		inv[j] = p
	}
	out := NewCSR(a.Rows, len(cols))
	type ent struct {
		j int
		v float64
	}
	row := make([]ent, 0, len(cols))
	for i := 0; i < a.Rows; i++ {
		rcols, rvals := a.RowView(i)
		row = row[:0]
		for k, j := range rcols {
			if p := inv[j]; p >= 0 {
				row = append(row, ent{p, rvals[k]})
			}
		}
		sort.Slice(row, func(x, y int) bool { return row[x].j < row[y].j })
		for _, e := range row {
			out.ColIdx = append(out.ColIdx, e.j)
			out.Val = append(out.Val, e.v)
		}
		out.RowPtr[i+1] = len(out.Val)
	}
	return out
}

// ExtractColsDense gathers the given columns into a dense m×len(cols)
// panel (the kernel feeding dense panel QR in QR_TP and LU_CRTP).
func (a *CSR) ExtractColsDense(cols []int) *mat.Dense {
	pos := make(map[int]int, len(cols))
	for p, j := range cols {
		if j < 0 || j >= a.Cols {
			panic("sparse: ExtractColsDense column out of range")
		}
		pos[j] = p
	}
	out := mat.NewDense(a.Rows, len(cols))
	for i := 0; i < a.Rows; i++ {
		rcols, rvals := a.RowView(i)
		orow := out.Row(i)
		for k, j := range rcols {
			if p, ok := pos[j]; ok {
				orow[p] = rvals[k]
			}
		}
	}
	return out
}

// Threshold splits A into (kept, dropped): entries with |v| < mu move to
// the dropped matrix (the perturbation matrix T̃ of ILUT_CRTP), everything
// else stays in kept. mu ≤ 0 returns (A, empty).
func (a *CSR) Threshold(mu float64) (kept, dropped *CSR) {
	kept = NewCSR(a.Rows, a.Cols)
	dropped = NewCSR(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			v := vals[k]
			if math.Abs(v) < mu {
				dropped.ColIdx = append(dropped.ColIdx, j)
				dropped.Val = append(dropped.Val, v)
			} else {
				kept.ColIdx = append(kept.ColIdx, j)
				kept.Val = append(kept.Val, v)
			}
		}
		kept.RowPtr[i+1] = len(kept.Val)
		dropped.RowPtr[i+1] = len(dropped.Val)
	}
	return kept, dropped
}

// ThresholdSmallest implements the "aggressive" variant of §VI-A: entries
// with |v| < limit are sorted by magnitude and dropped smallest-first
// until the squared-Frobenius budget is exhausted.
func (a *CSR) ThresholdSmallest(limit, budget2 float64) (kept, dropped *CSR) {
	type cand struct {
		row, k int
		abs    float64
	}
	var cands []cand
	for i := 0; i < a.Rows; i++ {
		s, e := a.RowPtr[i], a.RowPtr[i+1]
		for k := s; k < e; k++ {
			if av := math.Abs(a.Val[k]); av < limit {
				cands = append(cands, cand{i, k, av})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool { return cands[x].abs < cands[y].abs })
	drop := make(map[int]bool, len(cands))
	var used float64
	for _, c := range cands {
		if used+c.abs*c.abs > budget2 {
			break
		}
		used += c.abs * c.abs
		drop[c.k] = true
	}
	kept = NewCSR(a.Rows, a.Cols)
	dropped = NewCSR(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		s, e := a.RowPtr[i], a.RowPtr[i+1]
		for k := s; k < e; k++ {
			if drop[k] {
				dropped.ColIdx = append(dropped.ColIdx, a.ColIdx[k])
				dropped.Val = append(dropped.Val, a.Val[k])
			} else {
				kept.ColIdx = append(kept.ColIdx, a.ColIdx[k])
				kept.Val = append(kept.Val, a.Val[k])
			}
		}
		kept.RowPtr[i+1] = len(kept.Val)
		dropped.RowPtr[i+1] = len(dropped.Val)
	}
	return kept, dropped
}

// VStackCSR concatenates matrices vertically. All parts must have the
// same column count; nil or zero-row parts are skipped.
func VStackCSR(parts ...*CSR) *CSR {
	cols := -1
	rows := 0
	nnz := 0
	for _, p := range parts {
		if p == nil || p.Rows == 0 {
			continue
		}
		if cols == -1 {
			cols = p.Cols
		} else if p.Cols != cols {
			panic("sparse: VStackCSR column mismatch")
		}
		rows += p.Rows
		nnz += p.NNZ()
	}
	if cols == -1 {
		return NewCSR(0, 0)
	}
	out := NewCSR(rows, cols)
	out.ColIdx = make([]int, 0, nnz)
	out.Val = make([]float64, 0, nnz)
	r := 0
	for _, p := range parts {
		if p == nil || p.Rows == 0 {
			continue
		}
		for i := 0; i < p.Rows; i++ {
			cs, vs := p.RowView(i)
			out.ColIdx = append(out.ColIdx, cs...)
			out.Val = append(out.Val, vs...)
			out.RowPtr[r+1] = len(out.Val)
			r++
		}
	}
	return out
}

// Equal reports element-wise equality within absolute tolerance tol.
func (a *CSR) Equal(b *CSR, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	diff := Add(1, a, -1, b)
	for _, v := range diff.Val {
		if math.Abs(v) > tol {
			return false
		}
	}
	return true
}

// String summarizes the matrix for debugging.
func (a *CSR) String() string {
	return fmt.Sprintf("CSR %d×%d nnz=%d density=%.4g", a.Rows, a.Cols, a.NNZ(), a.Density())
}

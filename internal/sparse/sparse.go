package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

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

// FromDenseInto writes the entries of d with |v| > tol into dst, reusing
// dst's storage. tol = 0 keeps all exact nonzeros.
func FromDenseInto(dst *CSR, d *mat.Dense, tol float64) {
	dst.Rows, dst.Cols = d.Rows, d.Cols
	dst.RowPtr = mat.Grow(dst.RowPtr, d.Rows+1)
	dst.RowPtr[0] = 0
	dst.ColIdx, dst.Val = dst.ColIdx[:0], dst.Val[:0]
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			if math.Abs(v) > tol {
				dst.ColIdx = append(dst.ColIdx, j)
				dst.Val = append(dst.Val, v)
			}
		}
		dst.RowPtr[i+1] = len(dst.Val)
	}
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

// ColNorms2 returns the squared Euclidean norm of each column, in dst's
// storage when it has room (a nil dst allocates).
func (a *CSR) ColNorms2(dst []float64) []float64 {
	out := mat.Grow(dst, a.Cols)
	clear(out)
	for k, j := range a.ColIdx {
		out[j] += a.Val[k] * a.Val[k]
	}
	return out
}

// Transpose returns Aᵀ as a CSR matrix (equivalently, A reinterpreted in
// CSC). Linear time in NNZ.
func (a *CSR) Transpose() *CSR {
	c := a.ToCSC()
	return &CSR{Rows: a.Cols, Cols: a.Rows, RowPtr: c.ColPtr, ColIdx: c.RowIdx, Val: c.Val}
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
// the shared kernel pool with nnz-balanced row chunks (ParallelRowsByNNZ),
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
	j := spmmJobs.Get().(*spmmJob)
	j.a, j.out, j.b = a, out, b
	a.ParallelRowsByNNZ(j.rows)
	j.a, j.out, j.b = nil, nil, nil
	spmmJobs.Put(j)
}

// spmmJob binds mulDenseBody's operands to a pooled row body, so the
// parallel SpMM forms no closure per call.
type spmmJob struct {
	a      *CSR
	out, b *mat.Dense
	rows   func(lo, hi int) // mulRows bound once per pooled job
}

var spmmJobs = sync.Pool{New: func() any {
	j := new(spmmJob)
	j.rows = j.mulRows
	return j
}}

func (j *spmmJob) mulRows(lo, hi int) { j.a.mulDenseRows(j.out, j.b, lo, hi) }

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
// It runs SchurWorkspace's kernel on a fresh workspace: large products
// run row-parallel in flop-balanced chunks, and every output row is
// computed with exactly the serial per-row merge order, so the parallel
// result is bitwise identical to the serial one. The output arrays grow
// by extrapolating the entries emitted per flop (growOutput), not by
// append's steps, so they allocate little beyond their final size.
func SpGEMM(a, b *CSR) *CSR {
	if a.Cols != b.Rows {
		panic("sparse: SpGEMM dimension mismatch")
	}
	w := new(SchurWorkspace)
	return w.rows(gustavson{x: a, b: b}, 0, a.Rows)
}

// SchurWorkspace is the grow-only storage of the row-merge kernel behind
// SpGEMM and the LU Schur update: the weight prefix, the chunk bounds,
// one sparse accumulator and one output buffer per parallel chunk, and
// the output CSR. A warm call whose output fits allocates nothing. A
// workspace is not safe for concurrent use, and each call overwrites the
// matrix the previous call returned.
type SchurWorkspace struct {
	pw, bounds []int
	spas       []spa
	chunks     []chunkOut
	out        CSR
	// The operands of the parallel call in flight, read by run, which is
	// bound once so that a call forms no closure.
	g   gustavson
	lo  int
	run func(clo, chi int)
}

// chunkOut is one parallel chunk's output rows.
type chunkOut struct {
	colIdx []int
	val    []float64
}

// Schur returns rows [lo, hi) of the Schur complement A[r0:, c0:] − X·B,
// that is A[r0+lo : r0+hi, c0:] − X[lo:hi, :]·B, in w's storage, and its
// cost-model charge: SpGEMMFlops(X[lo:hi, :], B) plus two flops per
// stored entry of A[r0+lo : r0+hi, c0:]. One pass over the rows' weights
// gives both the charge and the chunking. A's trailing block is read in
// place and merged with each product row as it leaves the sparse
// accumulator, so neither the block nor the product is materialized.
// Exact zeros are dropped, and the result is bitwise equal to
//
//	Add(1, A.ExtractBlock(r0+lo, r0+hi, c0, A.Cols), -1,
//		SpGEMM(X.ExtractBlock(lo, hi, 0, X.Cols), B))
//
// Large blocks run row-parallel like SpGEMM, in chunks balanced on each
// row's flops plus its A entries.
func (w *SchurWorkspace) Schur(a *CSR, r0, c0 int, x, b *CSR, lo, hi int) (s *CSR, flops float64) {
	if r0 < 0 || c0 < 0 || x.Rows != a.Rows-r0 || x.Cols != b.Rows || b.Cols != a.Cols-c0 || lo < 0 || lo > hi || hi > x.Rows {
		panic("sparse: Schur dimension mismatch")
	}
	s = w.rows(gustavson{x: x, b: b, a: a, r0: r0, c0: c0}, lo, hi)
	return s, 2 * float64(w.pw[hi-lo])
}

// gustavson is one row-merge product X·B, or, when a is non-nil, the
// Schur block A[r0:, c0:] − X·B.
type gustavson struct {
	x, b, a *CSR
	r0, c0  int
}

// aRow returns A's stored entries in output row i of the Schur block
// (none for a plain product).
func (g gustavson) aRow(i int) (cols []int, vals []float64) {
	if g.a == nil {
		return nil, nil
	}
	cols, vals = g.a.RowView(g.r0 + i)
	k := sort.SearchInts(cols, g.c0)
	return cols[k:], vals[k:]
}

// weigh fills w.pw with the prefix sum over rows [lo, hi) of each output
// row's size bound: its Gustavson flop count Σ nnz(B row j) over the
// stored x_ij, plus its A entries. It prices the product, balances the
// parallel chunks and sizes the output.
func (w *SchurWorkspace) weigh(g gustavson, lo, hi int) {
	w.pw = mat.Grow(w.pw, hi-lo+1)
	pw := w.pw
	pw[0] = 0
	for i := lo; i < hi; i++ {
		acols, _ := g.aRow(i)
		f := len(acols)
		for _, j := range g.x.ColIdx[g.x.RowPtr[i]:g.x.RowPtr[i+1]] {
			f += g.b.RowPtr[j+1] - g.b.RowPtr[j]
		}
		pw[i-lo+1] = pw[i-lo] + f
	}
}

// rows computes output rows [lo, hi) into w.out: serially, or
// row-parallel in weight-balanced chunks when the product is large
// enough.
func (w *SchurWorkspace) rows(g gustavson, lo, hi int) *CSR {
	w.weigh(g, lo, hi)
	out := &w.out
	out.Rows, out.Cols = hi-lo, g.b.Cols
	out.RowPtr = mat.Grow(out.RowPtr, hi-lo+1)
	out.RowPtr[0] = 0
	if runtime.GOMAXPROCS(0) < 2 || 2*float64(w.pw[hi-lo]) < spgemmParallelThreshold {
		w.reserveChunks(1)
		out.ColIdx, out.Val = w.spas[0].rows(g, lo, w.pw, out.RowPtr[1:], out.ColIdx, out.Val)
		return out
	}
	w.bounds = chunksByPrefixInto(w.bounds, w.pw, runtime.GOMAXPROCS(0))
	nchunks := len(w.bounds) - 1
	w.reserveChunks(nchunks)
	w.g, w.lo = g, lo
	if w.run == nil {
		w.run = w.runChunks
	}
	// Each chunk writes its chunk-relative row ends into its own range
	// of out.RowPtr; the concatenation below shifts them into place.
	mat.ParallelFor(nchunks, 1, w.run)
	w.g = gustavson{}
	total := 0
	for _, co := range w.chunks[:nchunks] {
		total += len(co.val)
	}
	out.ColIdx, out.Val = grow(out.ColIdx, total), grow(out.Val, total)
	off := 0
	for c, co := range w.chunks[:nchunks] {
		for r := w.bounds[c] + 1; r <= w.bounds[c+1]; r++ {
			out.RowPtr[r] += off
		}
		copy(out.ColIdx[off:], co.colIdx)
		copy(out.Val[off:], co.val)
		off += len(co.val)
	}
	return out
}

// reserveChunks makes room for n chunks' accumulators and output
// buffers.
func (w *SchurWorkspace) reserveChunks(n int) {
	if len(w.spas) < n {
		w.spas = append(w.spas, make([]spa, n-len(w.spas))...)
		w.chunks = append(w.chunks, make([]chunkOut, n-len(w.chunks))...)
	}
}

// runChunks computes chunks [clo, chi) of the parallel call in flight.
// An empty chunk leaves an empty buffer, not the previous call's rows.
func (w *SchurWorkspace) runChunks(clo, chi int) {
	for c := clo; c < chi; c++ {
		l, h := w.bounds[c], w.bounds[c+1]
		co := &w.chunks[c]
		if l == h {
			co.colIdx, co.val = co.colIdx[:0], co.val[:0]
			continue
		}
		co.colIdx, co.val = w.spas[c].rows(w.g, w.lo+l, w.pw[l:h+1], w.out.RowPtr[l+1:h+1], co.colIdx, co.val)
	}
}

// grow returns s resized to n, at least doubling its capacity when it
// must grow, as append does, so output that grows a little on every
// call does not reallocate on every call.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// spa is a dense sparse accumulator over the output columns.
type spa struct {
	acc     []float64
	mark    []int
	pattern []int
}

// rows writes output rows lo, lo+1, … of g, one per step of the weight
// prefix pw, over the storage of colIdx and val, and the end of row lo+r
// to ends[r]. It returns the filled colIdx and val.
func (w *spa) rows(g gustavson, lo int, pw, ends, colIdx []int, val []float64) ([]int, []float64) {
	cols := g.b.Cols
	w.acc = mat.Grow(w.acc, cols)
	w.mark = mat.Grow(w.mark, cols)
	for j := range w.mark {
		w.mark[j] = -1
	}
	if w.pattern == nil {
		w.pattern = make([]int, 0, 64)
	}
	colIdx, val = colIdx[:0], val[:0]
	last := len(pw) - 1
	bound := pw[last] - pw[0]
	if g.a != nil {
		// A Schur block starts at its A entries plus 1/8: the update
		// mostly adds fill to them, so this is usually its final size.
		est := 0
		for r := 0; r < last; r++ {
			acols, _ := g.aRow(lo + r)
			est += len(acols)
		}
		est = min(est+est/8, bound)
		if cap(val) < est {
			// A warm buffer at least doubles, as in grow.
			c := max(est, min(2*cap(val), bound))
			colIdx, val = make([]int, 0, c), make([]float64, 0, c)
		}
	}
	for r := 0; r < last; r++ {
		i := lo + r
		w.pattern = spGEMMRow(g.x, g.b, i, w.acc, w.mark, w.pattern[:0])
		acols, avals := g.aRow(i)
		if n := len(val) + len(w.pattern) + len(acols); n > cap(val) {
			colIdx, val = growOutput(colIdx, val, n, pw[r+1]-pw[0], bound, len(val)+pw[last]-pw[r])
		}
		if g.a == nil {
			for _, j := range w.pattern {
				if w.acc[j] != 0 {
					colIdx = append(colIdx, j)
					val = append(val, w.acc[j])
				}
			}
		} else {
			colIdx, val = w.subtractFrom(acols, avals, g.c0, colIdx, val)
		}
		ends[r] = len(val)
	}
	return colIdx, val
}

// growOutput reallocates colIdx and val to hold at least n entries. The
// new capacity extrapolates the entries per unit of weight so far
// (n over done) to the total weight, plus 1/8, grows by at least 1/4, and
// never exceeds bound, the most entries the output can reach.
func growOutput(colIdx []int, val []float64, n, done, total, bound int) ([]int, []float64) {
	c := max(n, cap(val)+cap(val)/4)
	if done > 0 {
		c = max(c, int(float64(n)*float64(total)/float64(done)*1.125))
	}
	c = max(min(c, bound), n)
	colIdx = append(make([]int, 0, c), colIdx...)
	val = append(make([]float64, 0, c), val...)
	return colIdx, val
}

// subtractFrom appends the row whose A entries (columns ≥ c0) are
// acols/avals minus the accumulated product row, merging the two sorted
// patterns the way Add(1, ·, −1, ·) does.
func (w *spa) subtractFrom(acols []int, avals []float64, c0 int, colIdx []int, val []float64) ([]int, []float64) {
	ka, pat := 0, w.pattern
	for ka < len(acols) || len(pat) > 0 {
		var j int
		var v float64
		switch {
		case len(pat) == 0 || (ka < len(acols) && acols[ka]-c0 < pat[0]):
			j, v = acols[ka]-c0, avals[ka]
			ka++
		case ka >= len(acols) || pat[0] < acols[ka]-c0:
			j, v = pat[0], -w.acc[pat[0]]
			pat = pat[1:]
		default:
			j, v = pat[0], avals[ka]-w.acc[pat[0]]
			ka++
			pat = pat[1:]
		}
		if v != 0 {
			colIdx = append(colIdx, j)
			val = append(val, v)
		}
	}
	return colIdx, val
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
// of A. Column indices within each row are re-sorted on pooled scratch,
// so a call allocates only the result.
func (a *CSR) PermuteCols(perm []int) *CSR {
	out := new(CSR)
	a.PermuteInto(out, nil, perm)
	return out
}

// PermuteInto writes P_r·A·P_c into dst in one pass, reusing dst's
// storage: row i of the result is row rowPerm[i] of A (row i when rowPerm
// is nil) and column j is column colPerm[j] of A. Each row's column
// indices are re-sorted on pooled scratch, so the result is bitwise
// a.PermuteCols(colPerm).PermuteRows(rowPerm). dst must not alias a.
func (a *CSR) PermuteInto(dst *CSR, rowPerm, colPerm []int) {
	if len(colPerm) != a.Cols || (rowPerm != nil && len(rowPerm) != a.Rows) {
		panic("sparse: permutation length mismatch")
	}
	dst.Rows, dst.Cols = a.Rows, a.Cols
	dst.RowPtr = mat.Grow(dst.RowPtr, a.Rows+1)
	dst.ColIdx = mat.Grow(dst.ColIdx, a.NNZ())
	dst.Val = mat.Grow(dst.Val, a.NNZ())
	dst.RowPtr[0] = 0
	sc := permScratchPool.Get().(*permScratch)
	// inv maps old column index → new position.
	sc.inv = mat.Grow(sc.inv, a.Cols)
	inv := sc.inv
	for newj, oldj := range colPerm {
		inv[oldj] = newj
	}
	for i := 0; i < a.Rows; i++ {
		src := i
		if rowPerm != nil {
			src = rowPerm[i]
		}
		s, e := a.RowPtr[src], a.RowPtr[src+1]
		d := dst.RowPtr[i]
		dst.RowPtr[i+1] = d + e - s
		row := sc.row[:0]
		for k := s; k < e; k++ {
			row = append(row, colVal{inv[a.ColIdx[k]], a.Val[k]})
		}
		slices.SortFunc(row, colVal.cmp)
		for k, ent := range row {
			dst.ColIdx[d+k] = ent.j
			dst.Val[d+k] = ent.v
		}
		sc.row = row
	}
	permScratchPool.Put(sc)
}

// colVal is one row entry being re-sorted by column.
type colVal struct {
	j int
	v float64
}

func (x colVal) cmp(y colVal) int { return x.j - y.j }

// permScratch is PermuteCols' reusable inverse permutation and row buffer.
type permScratch struct {
	inv []int
	row []colVal
}

var permScratchPool = sync.Pool{New: func() any { return new(permScratch) }}

// ExtractBlock returns the submatrix with rows [r0, r1) and columns
// [c0, c1) as a new CSR matrix.
func (a *CSR) ExtractBlock(r0, r1, c0, c1 int) *CSR {
	out := new(CSR)
	a.ExtractBlockInto(out, r0, r1, c0, c1)
	return out
}

// ExtractBlockInto writes the submatrix with rows [r0, r1) and columns
// [c0, c1) into dst, reusing dst's storage. dst must not alias a.
func (a *CSR) ExtractBlockInto(dst *CSR, r0, r1, c0, c1 int) {
	if r0 < 0 || r1 > a.Rows || c0 < 0 || c1 > a.Cols || r0 > r1 || c0 > c1 {
		panic("sparse: ExtractBlock range out of bounds")
	}
	dst.Rows, dst.Cols = r1-r0, c1-c0
	dst.RowPtr = mat.Grow(dst.RowPtr, r1-r0+1)
	dst.RowPtr[0] = 0
	dst.ColIdx, dst.Val = dst.ColIdx[:0], dst.Val[:0]
	for i := r0; i < r1; i++ {
		cols, vals := a.RowView(i)
		// Binary search for the first column ≥ c0.
		lo := sort.SearchInts(cols, c0)
		for k := lo; k < len(cols) && cols[k] < c1; k++ {
			dst.ColIdx = append(dst.ColIdx, cols[k]-c0)
			dst.Val = append(dst.Val, vals[k])
		}
		dst.RowPtr[i-r0+1] = len(dst.Val)
	}
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
	row := make([]colVal, 0, len(cols))
	for i := 0; i < a.Rows; i++ {
		rcols, rvals := a.RowView(i)
		row = row[:0]
		for k, j := range rcols {
			if p := inv[j]; p >= 0 {
				row = append(row, colVal{p, rvals[k]})
			}
		}
		slices.SortFunc(row, colVal.cmp)
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

// DroppedBelow returns the squared Frobenius norm and the count of the
// entries with |v| < mu, the ones DropBelow(mu) removes, in one read-only
// pass. The sum runs in FrobNorm2's order, so it is bitwise FrobNorm2 of
// the removed entries.
func (a *CSR) DroppedBelow(mu float64) (norm2 float64, nnz int) {
	for _, v := range a.Val {
		if math.Abs(v) < mu {
			norm2 += v * v
			nnz++
		}
	}
	return norm2, nnz
}

// DropBelow removes the entries with |v| < mu in place (the ILUT_CRTP
// thresholding that forms the perturbation T̃), compacting a's own
// storage. When drop is non-nil it sees every removed entry, in row
// order. mu ≤ 0 removes nothing.
func (a *CSR) DropBelow(mu float64, drop func(i, j int, v float64)) {
	w, s := 0, 0
	for i := 0; i < a.Rows; i++ {
		e := a.RowPtr[i+1]
		for k := s; k < e; k++ {
			j, v := a.ColIdx[k], a.Val[k]
			if math.Abs(v) < mu {
				if drop != nil {
					drop(i, j, v)
				}
				continue
			}
			a.ColIdx[w], a.Val[w] = j, v
			w++
		}
		a.RowPtr[i+1] = w
		s = e
	}
	a.ColIdx, a.Val = a.ColIdx[:w], a.Val[:w]
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

// VStackCSRInto writes the vertical concatenation of parts into dst,
// reusing dst's storage (at least doubling it when it must grow). All
// parts must have the same column count; nil or zero-row parts are
// skipped, and with none left dst is 0×0. dst must not alias a part.
func VStackCSRInto(dst *CSR, parts ...*CSR) {
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
			panic("sparse: VStackCSRInto column mismatch")
		}
		rows += p.Rows
		nnz += p.NNZ()
	}
	dst.Rows, dst.Cols = rows, max(cols, 0)
	dst.RowPtr = grow(dst.RowPtr, rows+1)
	dst.ColIdx, dst.Val = grow(dst.ColIdx, nnz), grow(dst.Val, nnz)
	dst.RowPtr[0] = 0
	r, off := 0, 0
	for _, p := range parts {
		if p == nil || p.Rows == 0 {
			continue
		}
		copy(dst.ColIdx[off:], p.ColIdx)
		copy(dst.Val[off:], p.Val)
		for i := 1; i <= p.Rows; i++ {
			dst.RowPtr[r+i] = off + p.RowPtr[i]
		}
		r += p.Rows
		off += p.NNZ()
	}
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

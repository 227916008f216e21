package mat

import (
	"math"
	"runtime"
)

// Blocked-QR tuning. Panels of qrBlock columns are factored with the
// column-at-a-time kernel, then the trailing matrix is updated with one
// compact-WY block reflector (I − V·T·Vᵀ) applied through GEMM. Matrices
// with fewer than qrBlockedMinK reflectors use the unblocked path, whose
// output is bitwise identical to the pre-blocking implementation.
const (
	qrBlock             = 32      // panel width (WY block size)
	qrBlockedMinK       = 48      // min(m,n) below which QR stays unblocked
	qrRowGrain          = 64      // rows per chunk when a reflector update runs parallel
	qrParallelThreshold = 1 << 14 // rank-1 update area below which it stays serial
)

// qrFactor holds a compact Householder QR factorization: the reflectors
// are stored below the diagonal of fac, the upper triangle of fac is R and
// tau holds the reflector coefficients. wy caches the per-panel compact-WY
// (V, T) pairs, built lazily when Q is applied in blocked form.
type qrFactor struct {
	fac *Dense
	tau []float64
	wy  []wyBlock
}

// wyBlock is the compact-WY representation of one panel of reflectors:
// H_j···H_{j+jb−1} = I − V·T·Vᵀ with V unit lower trapezoidal and T upper
// triangular (Schreiber & Van Loan).
type wyBlock struct {
	j    int
	v, t *Dense
}

// houseQR computes an in-place Householder QR of a clone of a. It works
// for any shape; the number of reflectors is min(m, n). Large
// factorizations run panel-blocked so the trailing update is GEMM.
func houseQR(a *Dense) *qrFactor {
	m, n := a.Dims()
	k := min(m, n)
	if k < qrBlockedMinK {
		return houseQRUnblocked(a)
	}
	f := a.Clone()
	tau := make([]float64, k)
	s := make([]float64, n)
	for j := 0; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		// Factor the panel; trailing updates confined to its jb columns.
		for jj := j; jj < j+jb; jj++ {
			houseColumn(f, jj, m, tau, s, j+jb)
		}
		if j+jb < n {
			// Apply (I − V·T·Vᵀ)ᵀ to the trailing columns via GEMM.
			v := buildV(f, j, jb)
			t := buildT(v, tau[j:j+jb])
			applyWY(f.View(j, j+jb, m-j, n-(j+jb)), v, t, true)
		}
	}
	return &qrFactor{fac: f, tau: tau}
}

// houseQRUnblocked is the column-at-a-time reference path, used for small
// factorizations and by the equivalence tests and benchmarks.
func houseQRUnblocked(a *Dense) *qrFactor {
	m, n := a.Dims()
	f := a.Clone()
	k := min(m, n)
	tau := make([]float64, k)
	s := make([]float64, n)
	for j := 0; j < k; j++ {
		houseColumn(f, j, m, tau, s, n)
	}
	return &qrFactor{fac: f, tau: tau}
}

// buildV materializes the unit lower-trapezoidal reflector block V for the
// panel starting at column j: V is (m−j)×jb with ones on the diagonal, the
// stored reflector entries below it and zeros above.
func buildV(f *Dense, j, jb int) *Dense {
	m := f.Rows
	v := NewDense(m-j, jb)
	for c := 0; c < jb && c < v.Rows; c++ {
		v.Data[c*v.Stride+c] = 1
		for i := c + 1; i < v.Rows; i++ {
			v.Data[i*v.Stride+c] = f.Data[(j+i)*f.Stride+(j+c)]
		}
	}
	return v
}

// buildT forms the jb×jb upper-triangular T of the compact-WY
// representation from V and the reflector coefficients (LAPACK dlarft,
// forward columnwise): T[0:c,c] = −τ_c·T[0:c,0:c]·(V[:,0:c]ᵀ·v_c).
func buildT(v *Dense, tau []float64) *Dense {
	jb := len(tau)
	t := NewDense(jb, jb)
	w := make([]float64, jb)
	for c := 0; c < jb; c++ {
		tc := tau[c]
		if c > 0 && tc != 0 {
			for r := 0; r < c; r++ {
				w[r] = 0
			}
			// v_c is zero above its diagonal entry, so start at row c.
			for i := c; i < v.Rows; i++ {
				vic := v.Data[i*v.Stride+c]
				if vic == 0 {
					continue
				}
				row := v.Row(i)
				for r := 0; r < c; r++ {
					w[r] += row[r] * vic
				}
			}
			for r := 0; r < c; r++ {
				var sum float64
				trow := t.Row(r)
				for u := r; u < c; u++ {
					sum += trow[u] * w[u]
				}
				t.Data[r*t.Stride+c] = -tc * sum
			}
		}
		t.Data[c*t.Stride+c] = tc
	}
	return t
}

// applyWY applies the block reflector to c in place: c := (I − V·T·Vᵀ)·c,
// or with Tᵀ when trans is true (the Qᵀ direction used by factorization
// trailing updates). All three products run on the parallel GEMM kernels.
func applyWY(c, v, t *Dense, trans bool) {
	if c.Rows == 0 || c.Cols == 0 {
		return
	}
	w := MulT(v, c) // jb×w = Vᵀ·c
	if trans {
		triMulTrans(t, w)
	} else {
		triMul(t, w)
	}
	MulSub(c, v, w) // c -= V·w
}

// triMul computes w := t·w in place for upper-triangular t.
func triMul(t, w *Dense) {
	for r := 0; r < t.Rows; r++ {
		wr := w.Row(r)
		trow := t.Row(r)
		d := trow[r]
		for c := range wr {
			wr[c] *= d
		}
		for u := r + 1; u < t.Rows; u++ {
			tv := trow[u]
			if tv == 0 {
				continue
			}
			wu := w.Row(u)
			for c := range wr {
				wr[c] += tv * wu[c]
			}
		}
	}
}

// triMulTrans computes w := tᵀ·w in place for upper-triangular t.
func triMulTrans(t, w *Dense) {
	for r := t.Rows - 1; r >= 0; r-- {
		wr := w.Row(r)
		d := t.Data[r*t.Stride+r]
		for c := range wr {
			wr[c] *= d
		}
		for u := 0; u < r; u++ {
			tv := t.Data[u*t.Stride+r]
			if tv == 0 {
				continue
			}
			wu := w.Row(u)
			for c := range wr {
				wr[c] += tv * wu[c]
			}
		}
	}
}

// houseColumn forms the reflector for column j and applies it to the
// trailing submatrix up to column n using the scratch buffer s. The
// rank-1 update (pass 2) runs row-parallel when the trailing area is
// large; each row is updated independently from the serially-gathered s,
// so the result is bitwise identical to the serial path.
func houseColumn(f *Dense, j, m int, tau, s []float64, n int) {
	st := f.Stride
	d := f.Data
	// Column norm below the diagonal.
	norm := 0.0
	for i := j; i < m; i++ {
		v := d[i*st+j]
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		tau[j] = 0
		return
	}
	alpha := d[j*st+j]
	if alpha > 0 {
		norm = -norm
	}
	// v = x − norm·e1, normalized so v[0] = 1.
	v0 := alpha - norm
	d[j*st+j] = norm
	inv := 1 / v0
	for i := j + 1; i < m; i++ {
		d[i*st+j] *= inv
	}
	tau[j] = -v0 / norm // = 2/(vᵀv) scaled for v[0] = 1
	if j+1 >= n {
		return
	}
	// Pass 1: s[c] = (vᵀ F)(c) for trailing columns, streaming rows.
	// Kept serial so the summation order (and thus every downstream pivot
	// decision in QRCP) is independent of GOMAXPROCS.
	jrow := d[j*st : j*st+n]
	copy(s[j+1:n], jrow[j+1:n])
	for i := j + 1; i < m; i++ {
		vi := d[i*st+j]
		if vi == 0 {
			continue
		}
		row := d[i*st : i*st+n]
		for c := j + 1; c < n; c++ {
			s[c] += vi * row[c]
		}
	}
	t := tau[j]
	for c := j + 1; c < n; c++ {
		s[c] *= t
	}
	// Pass 2: F -= v·s, streaming rows.
	for c := j + 1; c < n; c++ {
		jrow[c] -= s[c]
	}
	rows, width := m-(j+1), n-(j+1)
	if rows*width >= qrParallelThreshold && runtime.GOMAXPROCS(0) > 1 {
		ParallelFor(rows, qrRowGrain, func(lo, hi int) {
			houseUpdateRows(d, st, j, s, j+1+lo, j+1+hi, n)
		})
		return
	}
	houseUpdateRows(d, st, j, s, j+1, m, n)
}

// houseUpdateRows applies rows [lo, hi) of the rank-1 update F -= v·s for
// the reflector in column j.
func houseUpdateRows(d []float64, st, j int, s []float64, lo, hi, n int) {
	for i := lo; i < hi; i++ {
		vi := d[i*st+j]
		if vi == 0 {
			continue
		}
		row := d[i*st : i*st+n]
		for c := j + 1; c < n; c++ {
			row[c] -= s[c] * vi
		}
	}
}

// applyReflector applies (I − τ·v·vᵀ) for reflector j to b in place,
// using the same row-streaming two-pass form as houseColumn. Pass 2 runs
// row-parallel for large updates (bitwise identical to serial).
func (qf *qrFactor) applyReflector(b *Dense, j int, s []float64) {
	t := qf.tau[j]
	if t == 0 {
		return
	}
	m := qf.fac.Rows
	fst := qf.fac.Stride
	fd := qf.fac.Data
	w := b.Cols
	// Pass 1: s = vᵀ·b.
	copy(s[:w], b.Row(j))
	for i := j + 1; i < m; i++ {
		vi := fd[i*fst+j]
		if vi == 0 {
			continue
		}
		row := b.Row(i)
		for c := 0; c < w; c++ {
			s[c] += vi * row[c]
		}
	}
	for c := 0; c < w; c++ {
		s[c] *= t
	}
	// Pass 2: b -= v·s.
	jrow := b.Row(j)
	for c := 0; c < w; c++ {
		jrow[c] -= s[c]
	}
	rows := m - (j + 1)
	if rows*w >= qrParallelThreshold && runtime.GOMAXPROCS(0) > 1 {
		ParallelFor(rows, qrRowGrain, func(lo, hi int) {
			qf.reflectorUpdateRows(b, j, s, j+1+lo, j+1+hi)
		})
		return
	}
	qf.reflectorUpdateRows(b, j, s, j+1, m)
}

// reflectorUpdateRows runs pass 2 of applyReflector over rows [lo, hi).
// It is a named method (not a closure inside applyReflector) so the
// serial path stays allocation-free: a closure created for ParallelFor
// escapes to the heap even on calls that never reach the parallel branch.
func (qf *qrFactor) reflectorUpdateRows(b *Dense, j int, s []float64, lo, hi int) {
	fst := qf.fac.Stride
	fd := qf.fac.Data
	w := b.Cols
	for i := lo; i < hi; i++ {
		vi := fd[i*fst+j]
		if vi == 0 {
			continue
		}
		row := b.Row(i)
		for c := 0; c < w; c++ {
			row[c] -= s[c] * vi
		}
	}
}

// wyBlocks returns (building lazily) the compact-WY representation of the
// factorization's reflectors, grouped into panels of qrBlock.
func (qf *qrFactor) wyBlocks() []wyBlock {
	if qf.wy == nil {
		k := len(qf.tau)
		for j := 0; j < k; j += qrBlock {
			jb := min(qrBlock, k-j)
			v := buildV(qf.fac, j, jb)
			t := buildT(v, qf.tau[j:j+jb])
			qf.wy = append(qf.wy, wyBlock{j: j, v: v, t: t})
		}
	}
	return qf.wy
}

// applyQ computes Q·b in place, where Q is the (full, m×m) orthogonal
// factor represented by qf. Large factorizations apply the reflectors
// panel-at-a-time in compact-WY form (GEMM); small ones reflector-by-
// reflector, matching the pre-blocking implementation bitwise.
func (qf *qrFactor) applyQ(b *Dense) {
	qf.applyQScratch(b, nil)
}

// applyQScratch is applyQ with caller-provided reflector scratch (len ≥
// b.Cols); a nil s falls back to a fresh allocation. Workspace callers pass
// pooled scratch so the unblocked path allocates nothing.
func (qf *qrFactor) applyQScratch(b *Dense, s []float64) {
	if b.Rows != qf.fac.Rows {
		panic("mat: applyQ dimension mismatch")
	}
	if len(qf.tau) < qrBlockedMinK {
		if s == nil {
			s = make([]float64, b.Cols)
		}
		// Q = H_1 H_2 ... H_k, so Q·b applies reflectors in reverse order.
		for j := len(qf.tau) - 1; j >= 0; j-- {
			qf.applyReflector(b, j, s)
		}
		return
	}
	blocks := qf.wyBlocks()
	for p := len(blocks) - 1; p >= 0; p-- {
		blk := blocks[p]
		applyWY(b.View(blk.j, 0, b.Rows-blk.j, b.Cols), blk.v, blk.t, false)
	}
}

// applyQT computes Qᵀ·b in place.
func (qf *qrFactor) applyQT(b *Dense) {
	if b.Rows != qf.fac.Rows {
		panic("mat: applyQT dimension mismatch")
	}
	if len(qf.tau) < qrBlockedMinK {
		s := make([]float64, b.Cols)
		for j := 0; j < len(qf.tau); j++ {
			qf.applyReflector(b, j, s)
		}
		return
	}
	blocks := qf.wyBlocks()
	for p := 0; p < len(blocks); p++ {
		blk := blocks[p]
		applyWY(b.View(blk.j, 0, b.Rows-blk.j, b.Cols), blk.v, blk.t, true)
	}
}

// thinQ forms the first k columns of Q explicitly.
func (qf *qrFactor) thinQ(k int) *Dense {
	m := qf.fac.Rows
	e := NewDense(m, k)
	for i := 0; i < k && i < m; i++ {
		e.Set(i, i, 1)
	}
	qf.applyQ(e)
	return e
}

// QR computes a thin Householder QR factorization a = q·r with
// q ∈ ℝ^{m×min(m,n)} having orthonormal columns and r ∈ ℝ^{min(m,n)×n}
// upper trapezoidal.
func QR(a *Dense) (q, r *Dense) {
	m, n := a.Dims()
	k := m
	if n < k {
		k = n
	}
	qf := houseQR(a)
	r = NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, qf.fac.At(i, j))
		}
	}
	q = qf.thinQ(k)
	return q, r
}

// ROnly computes only the R factor of the thin QR of a (used by TSQR tree
// reductions where Q is not needed).
func ROnly(a *Dense) *Dense {
	m, n := a.Dims()
	k := m
	if n < k {
		k = n
	}
	qf := houseQR(a)
	r := NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, qf.fac.At(i, j))
		}
	}
	return r
}

// Orth returns an orthonormal basis for the range of a, dropping
// numerically dependent columns (relative tolerance on the QRCP
// diagonal). The result has between 0 and min(m,n) columns. A nil result
// is never returned; a zero matrix yields a matrix with zero columns.
func Orth(a *Dense) *Dense {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return NewDense(m, 0)
	}
	q, r, _ := QRCP(a)
	// Determine numerical rank from the QRCP diagonal.
	d0 := math.Abs(r.At(0, 0))
	if d0 == 0 {
		return NewDense(m, 0)
	}
	tol := d0 * 1e-13 * float64(max(m, n))
	rank := 0
	k := min(m, n)
	for i := 0; i < k; i++ {
		if math.Abs(r.At(i, i)) > tol {
			rank++
		} else {
			break
		}
	}
	return q.View(0, 0, m, rank).Clone()
}

// QRCP computes a column-pivoted (rank-revealing) QR factorization
// a·P = q·r using the Businger–Golub algorithm with column-norm
// downdating. perm[j] gives the index in a of the j-th column of a·P.
// The diagonal of r is non-increasing in magnitude.
//
// The pivot sequence is computed with serial reductions, so it is
// independent of GOMAXPROCS; only the trailing-matrix rank-1 updates and
// the final Q formation use the parallel kernels.
func QRCP(a *Dense) (q, r *Dense, perm []int) {
	f, tau, r, perm := qrcpPivoted(a)
	q = (&qrFactor{fac: f, tau: tau}).thinQ(len(tau))
	return q, r, perm
}

// qrcpPivoted is the part QRCP and QRCPSelect share: it factors a copy
// of a with qrcpFactor and returns the factored copy, tau, R and perm, so
// both entry points return bitwise the same R and pivots.
func qrcpPivoted(a *Dense) (f *Dense, tau []float64, r *Dense, perm []int) {
	m, n := a.Dims()
	k := min(m, n)
	f = a.Clone()
	perm = make([]int, n)
	tau = make([]float64, k)
	qrcpFactor(f, tau, make([]float64, n), make([]float64, n), make([]float64, n), perm)
	r = NewDense(k, n)
	for i := 0; i < k; i++ {
		copy(r.Row(i)[i:], f.Row(i)[i:])
	}
	return f, tau, r, perm
}

// qrcpFactor runs the Businger–Golub pivoted factorization in place on f
// with caller-provided storage: tau (len min(m,n)), norms/orig/scratch
// (len n) and perm (len n). It is the single implementation behind QRCP
// and OrthWorkspace, so pooled-workspace callers factor bitwise
// identically to the allocating API.
func qrcpFactor(f *Dense, tau, norms, orig, scratch []float64, perm []int) {
	m, n := f.Dims()
	k := min(m, n)
	for j := range perm {
		perm[j] = j
	}
	// Column norms (squared) with saved originals for the downdating
	// recomputation guard.
	for j := 0; j < n; j++ {
		var s float64
		for i := 0; i < m; i++ {
			v := f.At(i, j)
			s += v * v
		}
		norms[j] = s
		orig[j] = s
	}
	for j := 0; j < k; j++ {
		// Pivot: column of largest remaining norm.
		best, bestv := j, norms[j]
		for c := j + 1; c < n; c++ {
			if norms[c] > bestv {
				best, bestv = c, norms[c]
			}
		}
		if best != j {
			f.SwapCols(j, best)
			norms[j], norms[best] = norms[best], norms[j]
			orig[j], orig[best] = orig[best], orig[j]
			perm[j], perm[best] = perm[best], perm[j]
		}
		// Reflector + trailing update (row-streaming form).
		houseColumn(f, j, m, tau, scratch, n)
		if tau[j] == 0 {
			continue
		}
		// Downdate the remaining column norms; recompute when cancellation
		// makes the downdated value unreliable.
		jrow := f.Row(j)
		for c := j + 1; c < n; c++ {
			rv := jrow[c]
			norms[c] -= rv * rv
			if norms[c] < 1e-10*orig[c] || norms[c] < 0 {
				var s float64
				for i := j + 1; i < m; i++ {
					v := f.Data[i*f.Stride+c]
					s += v * v
				}
				norms[c] = s
				orig[c] = s
			}
		}
	}
}

// QRCPSelect returns the R factor and the column permutation of QRCP(a),
// bitwise equal to QRCP's, without forming Q. It is the column selector
// of the skeleton methods; the tournament nodes use QRCPInPlace instead.
func QRCPSelect(a *Dense) (r *Dense, perm []int) {
	_, _, r, perm = qrcpPivoted(a)
	return r, perm
}

// QRCPInPlace runs the QRCP pivot sequence on f in place with
// caller-owned storage and allocates nothing: on return perm is the
// column permutation of QRCP(f) bit for bit (it runs the same
// qrcpFactor), the upper triangle of f holds R and the reflectors sit
// below it. tau needs length min(m, n); norms, orig, scratch and perm
// need length n. It is the tournament-node kernel, where only the pivots
// are used.
func QRCPInPlace(f *Dense, tau, norms, orig, scratch []float64, perm []int) {
	m, n := f.Dims()
	if len(tau) != min(m, n) || len(norms) != n || len(orig) != n || len(scratch) != n || len(perm) != n {
		panic("mat: QRCPInPlace workspace length mismatch")
	}
	qrcpFactor(f, tau, norms, orig, scratch, perm)
}

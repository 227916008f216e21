package mat

import (
	"math"
	"runtime"
	"sync"
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

// houseQR computes a Householder QR of a clone of a. It works for any
// shape; the number of reflectors is min(m, n).
func houseQR(a *Dense) *qrFactor {
	m, n := a.Dims()
	f := a.Clone()
	tau := make([]float64, min(m, n))
	houseQRInPlace(f, tau, make([]float64, n))
	return &qrFactor{fac: f, tau: tau}
}

// houseQRInPlace is the one Householder QR loop: it factors f in place
// with caller-provided tau (len min(m, n)) and scratch s (len n), leaving
// R in the upper triangle and the reflectors below it. Large
// factorizations run panel-blocked so the trailing update is GEMM; those
// below qrBlockedMinK reflectors run column at a time and allocate
// nothing.
func houseQRInPlace(f *Dense, tau, s []float64) {
	m, n := f.Dims()
	k := min(m, n)
	if k < qrBlockedMinK {
		houseQRColumns(f, tau, s)
		return
	}
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
}

// houseQRColumns factors f in place one reflector at a time.
func houseQRColumns(f *Dense, tau, s []float64) {
	m, n := f.Dims()
	for j := range tau {
		houseColumn(f, j, m, tau, s, n)
	}
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
	reflectorUpdate(d, st, j, m, d, st, j+1, n, s)
}

// reflectorUpdate runs pass 2 of a reflector application, T -= v·s over
// rows [j+1, m) and columns [c0, c1) of the target T (data td, stride
// tst), where v_i is entry (i, j) of the factor (data vd, stride vst) and
// s is indexed by target column. The update runs row-parallel when the
// area is large; each row is updated independently from the
// serially-gathered s, so the result is bitwise identical to the serial
// path. The parallel path binds its operands to a pooled job, so neither
// path allocates.
func reflectorUpdate(vd []float64, vst, j, m int, td []float64, tst, c0, c1 int, s []float64) {
	rows := m - (j + 1)
	if rows*(c1-c0) < qrParallelThreshold || runtime.GOMAXPROCS(0) < 2 {
		reflectorUpdateRows(vd, vst, j, td, tst, c0, c1, s, j+1, m)
		return
	}
	rj := reflectorJobs.Get().(*reflectorJob)
	rj.vd, rj.vst, rj.j, rj.td, rj.tst, rj.c0, rj.c1, rj.s = vd, vst, j, td, tst, c0, c1, s
	ParallelFor(rows, qrRowGrain, rj.rows)
	rj.vd, rj.td, rj.s = nil, nil, nil
	reflectorJobs.Put(rj)
}

// reflectorUpdateRows applies rows [lo, hi) of reflectorUpdate.
func reflectorUpdateRows(vd []float64, vst, j int, td []float64, tst, c0, c1 int, s []float64, lo, hi int) {
	sc := s[c0:c1]
	for i := lo; i < hi; i++ {
		vi := vd[i*vst+j]
		if vi == 0 {
			continue
		}
		row := td[i*tst+c0 : i*tst+c1]
		for c, sv := range sc {
			row[c] -= sv * vi
		}
	}
}

// reflectorJob binds reflectorUpdate's operands to a pooled row body, so
// the parallel update forms no closure per call.
type reflectorJob struct {
	vd, td, s           []float64
	vst, j, tst, c0, c1 int
	rows                func(lo, hi int) // updateRows bound once per pooled job
}

var reflectorJobs = sync.Pool{New: func() any {
	j := new(reflectorJob)
	j.rows = j.updateRows
	return j
}}

func (rj *reflectorJob) updateRows(lo, hi int) {
	reflectorUpdateRows(rj.vd, rj.vst, rj.j, rj.td, rj.tst, rj.c0, rj.c1, rj.s, rj.j+1+lo, rj.j+1+hi)
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
	reflectorUpdate(fd, fst, j, m, b.Data, b.Stride, 0, w, s)
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
	k := min(m, n)
	qf := houseQR(a)
	return qf.thinQ(k), UpperRows(qf.fac, k, n)
}

// UpperRows returns a new r×c matrix holding the upper triangle of f's
// leading block, zero below the diagonal and in rows past f's: the R
// factor of a QR or QRCP factored in place, trimmed or zero-padded.
func UpperRows(f *Dense, r, c int) *Dense {
	out := NewDense(r, c)
	for i := 0; i < min(r, f.Rows, c); i++ {
		copy(out.Row(i)[i:], f.Row(i)[i:c])
	}
	return out
}

// Orth returns an orthonormal basis for the range of a, dropping
// numerically dependent columns (relative tolerance on the QRCP
// diagonal). The result has between 0 and min(m,n) columns. A nil result
// is never returned; a zero matrix yields a matrix with zero columns.
// It is OrthWorkspace.Orth on fresh storage, so the two agree bit for
// bit; the result is compacted when columns were dropped.
func Orth(a *Dense) *Dense {
	var ws OrthWorkspace
	q := ws.Orth(a)
	if q.Stride != q.Cols {
		return q.Clone()
	}
	out := *q
	return &out
}

// qrcpFactor runs the Businger–Golub pivoted factorization in place on f
// with caller-provided storage: tau (len min(m,n)), norms/orig/scratch
// (len n) and perm (len n). It is the single implementation behind
// QRCPSelect, QRCPInPlace and OrthWorkspace, so pooled-workspace
// callers factor bitwise identically to the allocating API.
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

// QRCPSelect returns the R factor and the column permutation of a
// column-pivoted (rank-revealing) QR factorization a·P = Q·R, using the
// Businger–Golub algorithm with column-norm downdating; perm[j] is the
// index in a of the j-th column of a·P, and R's diagonal is
// non-increasing in magnitude. Q is not formed. The pivot sequence is
// computed with serial reductions, so it is independent of GOMAXPROCS.
// It is the column selector of the skeleton methods; the tournament
// nodes use QRCPInPlace instead.
func QRCPSelect(a *Dense) (r *Dense, perm []int) {
	m, n := a.Dims()
	k := min(m, n)
	f := a.Clone()
	perm = make([]int, n)
	qrcpFactor(f, make([]float64, k), make([]float64, n), make([]float64, n), make([]float64, n), perm)
	return UpperRows(f, k, n), perm
}

// QRCPInPlace runs the QRCP pivot sequence on f in place with
// caller-owned storage and allocates nothing: on return perm is the
// column permutation of QRCPSelect(f) bit for bit (it runs the same
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

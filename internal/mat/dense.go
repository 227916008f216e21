package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The element (i, j) is stored at
// Data[i*Stride+j]. A Dense value may be a view into a larger matrix, in
// which case Stride exceeds Cols.
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewDenseFrom builds an r×c matrix from a row-major flat slice. The slice
// is copied.
func NewDenseFrom(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), r, c))
	}
	d := NewDense(r, c)
	copy(d.Data, data)
	return d
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Data[i*d.Stride+i] = 1
	}
	return d
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 {
	if i < 0 || i >= d.Rows || j < 0 || j >= d.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, d.Rows, d.Cols))
	}
	return d.Data[i*d.Stride+j]
}

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) {
	if i < 0 || i >= d.Rows || j < 0 || j >= d.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, d.Rows, d.Cols))
	}
	d.Data[i*d.Stride+j] = v
}

// Dims returns the matrix dimensions.
func (d *Dense) Dims() (r, c int) { return d.Rows, d.Cols }

// IsEmpty reports whether the matrix has zero rows or columns.
func (d *Dense) IsEmpty() bool { return d.Rows == 0 || d.Cols == 0 }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (d *Dense) Row(i int) []float64 {
	return d.Data[i*d.Stride : i*d.Stride+d.Cols]
}

// View returns a view of the submatrix with rows [i, i+r) and columns
// [j, j+c). The view shares storage with d.
func (d *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > d.Rows || j+c > d.Cols {
		panic(fmt.Sprintf("mat: view (%d,%d,%d,%d) out of range %d×%d", i, j, r, c, d.Rows, d.Cols))
	}
	if r == 0 || c == 0 {
		// An empty view owns no elements: it is laid out as NewDense(r, c)
		// would be, so Row, Clone and CopyFrom work on it for every row.
		return &Dense{Rows: r, Cols: c, Stride: c}
	}
	return &Dense{
		Rows:   r,
		Cols:   c,
		Stride: d.Stride,
		Data:   d.Data[i*d.Stride+j : (i+r-1)*d.Stride+j+c],
	}
}

// Clone returns a compact deep copy of d (stride equals Cols even if d is
// a view).
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		copy(out.Row(i), d.Row(i))
	}
	return out
}

// CopyFrom copies src into d. Dimensions must match.
func (d *Dense) CopyFrom(src *Dense) {
	if d.Rows != src.Rows || d.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy shape mismatch %d×%d vs %d×%d", d.Rows, d.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < d.Rows; i++ {
		copy(d.Row(i), src.Row(i))
	}
}

// Zero clears all elements of d.
func (d *Dense) Zero() {
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Col copies column j into dst (allocating when dst is nil or short) and
// returns it.
func (d *Dense) Col(j int, dst []float64) []float64 {
	if cap(dst) < d.Rows {
		dst = make([]float64, d.Rows)
	}
	dst = dst[:d.Rows]
	for i := 0; i < d.Rows; i++ {
		dst[i] = d.Data[i*d.Stride+j]
	}
	return dst
}

// SetCol assigns column j from src.
func (d *Dense) SetCol(j int, src []float64) {
	if len(src) != d.Rows {
		panic(fmt.Sprintf("mat: SetCol length %d != rows %d", len(src), d.Rows))
	}
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Stride+j] = src[i]
	}
}

// SwapCols exchanges columns a and b in place.
func (d *Dense) SwapCols(a, b int) {
	if a == b {
		return
	}
	for i := 0; i < d.Rows; i++ {
		r := i * d.Stride
		d.Data[r+a], d.Data[r+b] = d.Data[r+b], d.Data[r+a]
	}
}

// SwapRows exchanges rows a and b in place.
func (d *Dense) SwapRows(a, b int) {
	if a == b {
		return
	}
	ra, rb := d.Row(a), d.Row(b)
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}

// T returns a newly allocated transpose of d.
func (d *Dense) T() *Dense {
	return d.TInto(NewDense(d.Cols, d.Rows))
}

// TInto writes the transpose of d into dst (d.Cols×d.Rows) and returns
// it: the allocation-free form of T for callers that own a buffer.
func (d *Dense) TInto(dst *Dense) *Dense {
	if dst.Rows != d.Cols || dst.Cols != d.Rows {
		panic(fmt.Sprintf("mat: TInto shape %d×%d for the transpose of %d×%d", dst.Rows, dst.Cols, d.Rows, d.Cols))
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Stride+i] = v
		}
	}
	return dst
}

// Scale multiplies every element by s in place.
func (d *Dense) Scale(s float64) {
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// Add accumulates src into d element-wise (d += src).
func (d *Dense) Add(src *Dense) {
	if d.Rows != src.Rows || d.Cols != src.Cols {
		panic("mat: Add shape mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		a, b := d.Row(i), src.Row(i)
		for j := range a {
			a[j] += b[j]
		}
	}
}

// Sub subtracts src from d element-wise (d -= src).
func (d *Dense) Sub(src *Dense) {
	if d.Rows != src.Rows || d.Cols != src.Cols {
		panic("mat: Sub shape mismatch")
	}
	for i := 0; i < d.Rows; i++ {
		a, b := d.Row(i), src.Row(i)
		for j := range a {
			a[j] -= b[j]
		}
	}
}

// FrobNorm returns the Frobenius norm of d, computed with scaling to avoid
// overflow.
func (d *Dense) FrobNorm() float64 {
	var scale, ssq float64 = 0, 1
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for _, v := range row {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// FrobNorm2 returns the squared Frobenius norm (plain summation; used by
// the error-indicator updates where the squared quantity is required).
func (d *Dense) FrobNorm2() float64 {
	var s float64
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for _, v := range row {
			s += v * v
		}
	}
	return s
}

// MaxAbs returns the largest absolute element value (the max norm).
func (d *Dense) MaxAbs() float64 {
	var m float64
	for i := 0; i < d.Rows; i++ {
		row := d.Row(i)
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// InfNorm returns the infinity norm (maximum absolute row sum).
func (d *Dense) InfNorm() float64 {
	var m float64
	for i := 0; i < d.Rows; i++ {
		var s float64
		row := d.Row(i)
		for _, v := range row {
			s += math.Abs(v)
		}
		if s > m {
			m = s
		}
	}
	return m
}

// Equal reports whether d and e have identical shape and elements within
// absolute tolerance tol.
func (d *Dense) Equal(e *Dense, tol float64) bool {
	if d.Rows != e.Rows || d.Cols != e.Cols {
		return false
	}
	for i := 0; i < d.Rows; i++ {
		a, b := d.Row(i), e.Row(i)
		for j := range a {
			if math.Abs(a[j]-b[j]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging.
func (d *Dense) String() string {
	s := fmt.Sprintf("Dense %d×%d\n", d.Rows, d.Cols)
	if d.Rows > 12 || d.Cols > 12 {
		return s + "(large)"
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			s += fmt.Sprintf("% 11.4e ", d.At(i, j))
		}
		s += "\n"
	}
	return s
}

// VStack concatenates matrices vertically: out = [a; b]. Either argument
// may be nil or empty, in which case the other is cloned.
func VStack(a, b *Dense) *Dense {
	if a == nil || a.IsEmpty() {
		if b == nil {
			return NewDense(0, 0)
		}
		return b.Clone()
	}
	if b == nil || b.IsEmpty() {
		return a.Clone()
	}
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: VStack col mismatch %d vs %d", a.Cols, b.Cols))
	}
	out := NewDense(a.Rows+b.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i))
	}
	for i := 0; i < b.Rows; i++ {
		copy(out.Row(a.Rows+i), b.Row(i))
	}
	return out
}

// PermuteRows returns P·d where P is described by perm: row i of the
// result is row perm[i] of d.
func (d *Dense) PermuteRows(perm []int) *Dense {
	if len(perm) != d.Rows {
		panic("mat: PermuteRows length mismatch")
	}
	out := NewDense(d.Rows, d.Cols)
	d.PermuteRowsInto(out, perm)
	return out
}

// PermuteRowsInto writes P·d into dst, a d.Rows×d.Cols matrix that does
// not alias d: row i of dst becomes row perm[i] of d.
func (d *Dense) PermuteRowsInto(dst *Dense, perm []int) {
	if len(perm) != d.Rows || dst.Rows != d.Rows || dst.Cols != d.Cols {
		panic("mat: PermuteRows length mismatch")
	}
	for i, p := range perm {
		copy(dst.Row(i), d.Row(p))
	}
}

// PermuteCols returns d·P where column j of the result is column perm[j]
// of d.
func (d *Dense) PermuteCols(perm []int) *Dense {
	if len(perm) != d.Cols {
		panic("mat: PermuteCols length mismatch")
	}
	out := NewDense(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		src, dst := d.Row(i), out.Row(i)
		for j, p := range perm {
			dst[j] = src[p]
		}
	}
	return out
}

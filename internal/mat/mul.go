package mat

import (
	"math"
	"runtime"
)

// Tuning constants for the blocked GEMM kernel (see pack.go for the panel
// layout and DESIGN.md §4b for how to re-tune them with -cpuprofile). A
// whole jc-slice of B — up to gemmKCC×gemmNC elements (8 MiB) — is packed
// once and shared read-only by all workers, so workers are dispatched once
// per (jc, kcc) block instead of once per gemmKC panel; each worker packs
// its own A micro-panels and walks the depth blocks privately, with no
// barrier between them. Thresholds keep small products on the serial path
// where packing and dispatch would cost more than they save.
const (
	// gemmParallelThreshold is the number of multiply-adds below which a
	// product runs single-threaded on the plain ikj kernel.
	gemmParallelThreshold = 1 << 15
	gemmKC                = 256  // depth of one packed-panel pass (A/B micro-panels 8 KiB each)
	gemmNC                = 512  // width of the shared packed-B slice
	gemmKCC               = 2048 // depth cap of the shared packed-B slice (bounds pack memory)
	gemmRowGrain          = 16   // A rows per ParallelFor chunk (multiple of gemmMR)
	gemmPanelGrain        = 16   // B column panels per chunk when splitting columns instead
)

// Mul returns a·b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("mat: Mul inner dimension mismatch")
	}
	out := NewDense(a.Rows, b.Cols)
	gemmInto(out, a, b, 1, false)
	return out
}

// MulSub subtracts a·b from dst (dst -= a·b). The sign is threaded through
// the gemm kernel as alpha = −1, so no negated copy of a is formed.
func MulSub(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulSub dimension mismatch")
	}
	gemmInto(dst, a, b, -1, true)
}

// MulTSub subtracts aᵀ·b from dst (dst -= aᵀ·b) without forming the
// transpose: the packed path lays aᵀ into the A micro-panels on the pack
// (packATPanels) and the serial path reads a column-wise, so per output
// element the operations are those of MulSub(dst, a.T(), b), bit for
// bit, on every path and at every GOMAXPROCS.
func MulTSub(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulTSub dimension mismatch")
	}
	m, kk, n := a.Cols, a.Rows, b.Cols
	if m == 0 || n == 0 || kk == 0 {
		return
	}
	if m*kk*n < gemmParallelThreshold {
		gemmSerialT(dst, a, b, -1)
		return
	}
	gemmPackedDriver(dst, a, true, m, kk, n, true,
		func(buf []float64, pcc, kcc, jc, nc int) {
			packBPanels(buf, b, pcc, kcc, jc, nc, -1)
		})
}

// MulInto computes dst = a·b, overwriting dst. It is the allocation-free
// form of Mul for callers that own a destination buffer; the value written
// is bitwise identical to Mul's.
func MulInto(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulInto dimension mismatch")
	}
	gemmInto(dst, a, b, 1, false)
}

// gemmInto computes dst = (dst +) alpha·a·b. When accumulate is false the
// packed path overwrites dst directly (no pre-zero pass); the serial path
// zeroes it first. alpha is folded into the packed B panel (or the A
// element on the serial path), which is exact for alpha = ±1 — the only
// values the library uses. Per output element the k-summation order is
// ascending on every path, so serial and parallel results are bitwise
// identical.
func gemmInto(dst, a, b *Dense, alpha float64, accumulate bool) {
	m, kk, n := a.Rows, a.Cols, b.Cols
	if m == 0 || n == 0 || kk == 0 || alpha == 0 {
		if !accumulate {
			dst.Zero()
		}
		return
	}
	// The packed path is used above the threshold even single-threaded:
	// panel packing plus the register micro-kernel beats the plain ikj
	// loop regardless of parallelism, and ParallelFor degrades to an
	// inline call at GOMAXPROCS=1.
	if m*kk*n < gemmParallelThreshold {
		if !accumulate {
			dst.Zero()
		}
		gemmSerial(dst, a, b, alpha, 0, m)
		return
	}
	gemmPackedDriver(dst, a, false, m, kk, n, accumulate,
		func(buf []float64, pcc, kcc, jc, nc int) {
			packBPanels(buf, b, pcc, kcc, jc, nc, alpha)
		})
}

// gemmPackedDriver runs the packed multiply dst = (dst +) A·P where P is
// whatever kk×n operand the pack callback lays into panels (alpha·B for
// GEMM, bᵀ for MulBT) and A is a, or aᵀ when aT is set (MulTSub). For each (jc, kcc) block it packs the shared B
// slice once — the pack parallelizes internally — then dispatches the
// worker pool a single time; each worker packs its own A micro-panels and
// walks every gemmKC depth block of the slice without further barriers.
// When m is too short to split usefully, the output columns are split
// across panels instead (disjoint writes, so still bitwise deterministic);
// the split choice depends only on the shape, never on GOMAXPROCS.
func gemmPackedDriver(dst, a *Dense, aT bool, m, kk, n int, accumulate bool,
	pack func(buf []float64, pcc, kcc, jc, nc int)) {
	ncMax := min(n, gemmNC)
	kccMax := min(kk, gemmKCC)
	npanMax := (ncMax + gemmNR - 1) / gemmNR
	bufp := GetScratch(npanMax * gemmNR * kccMax)
	defer PutScratch(bufp)
	buf := *bufp
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		npan := (nc + gemmNR - 1) / gemmNR
		for pcc := 0; pcc < kk; pcc += gemmKCC {
			kcc := min(gemmKCC, kk-pcc)
			pack(buf[:npan*gemmNR*kcc], pcc, kcc, jc, nc)
			ow := !accumulate && pcc == 0
			switch {
			case m >= 2*gemmRowGrain:
				ParallelFor(m, gemmRowGrain, func(lo, hi int) {
					gemmBlock(dst, a, aT, buf, jc, nc, pcc, kcc, lo, hi, 0, npan, ow)
				})
			case npan >= 2*gemmPanelGrain:
				ParallelFor(npan, gemmPanelGrain, func(lo, hi int) {
					gemmBlock(dst, a, aT, buf, jc, nc, pcc, kcc, 0, m, lo, hi, ow)
				})
			default:
				gemmBlock(dst, a, aT, buf, jc, nc, pcc, kcc, 0, m, 0, npan, ow)
			}
		}
	}
}

// gemmBlock computes dst rows [i0, i1) × packed column panels [jp0, jp1)
// of the current (jc, kcc) block: it packs the A rows it owns (columns
// of a when aT is set) into micro-panels, then walks the gemmKC depth blocks in ascending order,
// running the register micro-kernel per tile (the edge kernel on ragged
// tiles). ow overwrites the destination on the first depth block of a
// non-accumulating product.
func gemmBlock(dst, a *Dense, aT bool, buf []float64, jc, nc, pcc, kcc, i0, i1, jp0, jp1 int, ow bool) {
	rows := i1 - i0
	np := (rows + gemmMR - 1) / gemmMR
	apb := GetScratch(np * gemmMR * min(kcc, gemmKC))
	ap := *apb
	for k0 := 0; k0 < kcc; k0 += gemmKC {
		kc := min(gemmKC, kcc-k0)
		if aT {
			packATPanels(ap, a, i0, rows, pcc+k0, kc)
		} else {
			packAPanels(ap, a, i0, rows, pcc+k0, kc)
		}
		owk := ow && k0 == 0
		for ip := 0; ip < rows; ip += gemmMR {
			mr := min(gemmMR, rows-ip)
			apan := ap[(ip/gemmMR)*kc*gemmMR:][:kc*gemmMR]
			i := i0 + ip
			if mr == gemmMR {
				d0 := dst.Row(i)[jc : jc+nc]
				d1 := dst.Row(i + 1)[jc : jc+nc]
				d2 := dst.Row(i + 2)[jc : jc+nc]
				d3 := dst.Row(i + 3)[jc : jc+nc]
				for jp := jp0; jp < jp1; jp++ {
					bpan := buf[jp*kcc*gemmNR+k0*gemmNR:][:kc*gemmNR]
					j0 := jp * gemmNR
					if nc-j0 >= gemmNR {
						kernMicro(kc, apan, bpan, d0[j0:], d1[j0:], d2[j0:], d3[j0:], owk)
					} else {
						kernEdge(kc, gemmMR, nc-j0, apan, bpan, dst, i, jc+j0, owk)
					}
				}
			} else {
				for jp := jp0; jp < jp1; jp++ {
					bpan := buf[jp*kcc*gemmNR+k0*gemmNR:][:kc*gemmNR]
					j0 := jp * gemmNR
					kernEdge(kc, mr, min(gemmNR, nc-j0), apan, bpan, dst, i, jc+j0, owk)
				}
			}
		}
	}
	PutScratch(apb)
}

// gemmSerial computes rows [lo, hi) of dst += alpha·a·b with the plain ikj
// kernel that streams rows of b.
func gemmSerial(dst, a, b *Dense, alpha float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			av *= alpha
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// gemmSerialT computes dst += alpha·aᵀ·b with gemmSerial's loop order,
// reading row i of aᵀ as column i of a.
func gemmSerialT(dst, a, b *Dense, alpha float64) {
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Row(i)
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Stride+i]
			if av == 0 {
				continue
			}
			av *= alpha
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulTParallelThreshold is the multiply-add count below which MulT runs
// serially; mulTColGrain is the number of output columns per chunk.
// mulTParallelMinCols additionally keeps MulT serial when b is narrow:
// the parallel path splits b's columns, so every worker re-reads all of
// a — with few column chunks to amortize that over, the re-read traffic
// eats the speedup (measured 0.98× at 2048×128·128×128). Retune by
// running BenchmarkKernelMulT / BenchmarkKernelMulTWide and their Serial
// twins on ≥4 CPUs and moving the boundary to where parallel first wins.
const (
	mulTParallelThreshold = 1 << 16
	mulTColGrain          = 16
	mulTParallelMinCols   = 256
)

// MulT returns aᵀ·b without forming the transpose explicitly. The parallel
// path splits the columns of b (and hence of the output) across workers,
// so every output element is accumulated in exactly the serial order and
// results are bitwise identical to the serial path.
func MulT(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("mat: MulT dimension mismatch")
	}
	out := NewDense(a.Cols, b.Cols)
	mulTInto(out, a, b)
	return out
}

// MulTInto computes dst = aᵀ·b, overwriting dst. It is the allocation-free
// form of MulT; the value written is bitwise identical to MulT's.
func MulTInto(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("mat: MulTInto dimension mismatch")
	}
	dst.Zero()
	mulTInto(dst, a, b)
}

// mulTInto accumulates aᵀ·b into the (already zeroed) out with the same
// serial/parallel branching for both MulT and MulTInto.
func mulTInto(out, a, b *Dense) {
	work := a.Rows * a.Cols * b.Cols
	if work < mulTParallelThreshold || runtime.GOMAXPROCS(0) < 2 || b.Cols < mulTParallelMinCols {
		mulTCols(out, a, b, 0, b.Cols)
		return
	}
	ParallelFor(b.Cols, mulTColGrain, func(lo, hi int) {
		mulTCols(out, a, b, lo, hi)
	})
}

// mulTCols accumulates columns [lo, hi) of out = aᵀ·b.
func mulTCols(out, a, b *Dense, lo, hi int) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)[lo:hi]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := out.Row(i)[lo:hi]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MulBT returns a·bᵀ without forming the transpose explicitly. Above the
// work threshold it runs on the same packed-panel machinery as GEMM — the
// transpose happens on the pack (packBTPanels), so the micro-kernel and
// its tiling quality are shared with Mul. Every output element is a dot
// product accumulated in ascending k order on both paths, so results are
// bitwise identical across paths and across GOMAXPROCS.
func MulBT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic("mat: MulBT dimension mismatch")
	}
	out := NewDense(a.Rows, b.Rows)
	m, kk, n := a.Rows, a.Cols, b.Rows
	if m == 0 || n == 0 || kk == 0 {
		return out
	}
	if m*kk*n < gemmParallelThreshold {
		mulBTRows(out, a, b, 0, a.Rows)
		return out
	}
	gemmPackedDriver(out, a, false, m, kk, n, false,
		func(buf []float64, pcc, kcc, jc, nc int) {
			packBTPanels(buf, b, pcc, kcc, jc, nc)
		})
	return out
}

// mulBTTile is the number of b rows kept hot per pass of mulBTRows: the
// tile is re-read for every row of a in the chunk, so it stays in L2
// instead of streaming all of b once per output row.
const mulBTTile = 64

// mulBTRows computes rows [lo, hi) of out = a·bᵀ — the small-product
// serial path — tiled over rows of b with four independent dot products
// per pass. Each output element is a single dot product in ascending k
// order, so tiling and unrolling do not change any summation order.
func mulBTRows(out, a, b *Dense, lo, hi int) {
	for jt := 0; jt < b.Rows; jt += mulBTTile {
		jEnd := min(jt+mulBTTile, b.Rows)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := out.Row(i)
			j := jt
			for ; j+3 < jEnd; j += 4 {
				b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
				var s0, s1, s2, s3 float64
				for k, av := range arow {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
			for ; j < jEnd; j++ {
				brow := b.Row(j)
				var s float64
				for k, av := range arow {
					s += av * brow[k]
				}
				drow[j] = s
			}
		}
	}
}

// Dot returns the inner product of two vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Nrm2 returns the Euclidean norm of x with overflow-safe scaling.
func Nrm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

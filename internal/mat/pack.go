package mat

// Panel packing and the register-blocked micro-kernel behind the dense
// multiply kernels (Mul/MulSub/MulInto and the packed MulBT and
// MulTSub paths).
//
// Layout. The shared packed-B buffer holds one jc-slice of alpha·B (or of
// alpha·bᵀ for MulBT) as a sequence of gemmNR-wide column panels, each
// panel k-major: element (kg, jj) of panel jp lives at
//
//	buf[jp·kcc·gemmNR + kg·gemmNR + jj]
//
// so a micro-kernel pass over depth [k0, k0+kc) reads one contiguous
// kc·gemmNR run per panel. Per-worker packed-A buffers hold gemmMR-row
// panels in the mirrored k-major layout. Ragged edges are zero-padded at
// pack time; the padded lanes are computed and discarded, never stored.
//
// Determinism contract. Every kernel here seeds its accumulators from the
// destination (or from zero on the overwrite path, where the destination
// is defined to start at zero) and adds terms in ascending k order, k
// ascending across depth blocks because callers walk pc blocks in order.
// Per output element that is exactly the serial summation sequence, so
// serial and parallel runs — and any re-chunking of the loops — produce
// bitwise identical results. Products are written `acc += a*b` everywhere
// so every path makes the same fuse-or-not codegen choice per platform.

// The 4×2 tile is deliberate: its 8 accumulators plus 6 operands fit the
// 16 XMM registers of amd64 scalar codegen, while a 4×4 tile's 16
// accumulators spill to the stack every iteration and measure ~25% slower
// on the 512³ benchmark.
const (
	gemmMR = 4 // rows per register micro-tile
	gemmNR = 2 // cols per register micro-tile
)

// packBPanels packs alpha·b[pcc:pcc+kcc, jc:jc+nc] into gemmNR-wide
// k-major column panels, zero-padding the ragged last panel. Rows are
// split across the worker pool; every write is disjoint per source row,
// and packing is a pure copy, so the panel contents never depend on the
// split.
func packBPanels(buf []float64, b *Dense, pcc, kcc, jc, nc int, alpha float64) {
	npan := (nc + gemmNR - 1) / gemmNR
	ParallelFor(kcc, ChunkGrain(kcc), func(lo, hi int) {
		for kg := lo; kg < hi; kg++ {
			src := b.Row(pcc + kg)[jc : jc+nc]
			for jp := 0; jp < npan; jp++ {
				dst := buf[jp*kcc*gemmNR+kg*gemmNR:][:gemmNR]
				j0 := jp * gemmNR
				for jj := 0; jj < gemmNR; jj++ {
					if j0+jj < nc {
						dst[jj] = alpha * src[j0+jj]
					} else {
						dst[jj] = 0
					}
				}
			}
		}
	})
}

// packBTPanels packs b[jc:jc+nc, pcc:pcc+kcc]ᵀ into the same panel layout
// as packBPanels: the transpose happens on the pack (rows of b become
// packed columns), so MulBT reuses the GEMM micro-kernel unchanged.
// Panels are split across the worker pool; writes are disjoint per panel.
func packBTPanels(buf []float64, b *Dense, pcc, kcc, jc, nc int) {
	npan := (nc + gemmNR - 1) / gemmNR
	ParallelFor(npan, ChunkGrain(npan), func(lo, hi int) {
		for jp := lo; jp < hi; jp++ {
			pan := buf[jp*kcc*gemmNR:][:kcc*gemmNR]
			for jj := 0; jj < gemmNR; jj++ {
				j := jp*gemmNR + jj
				if j < nc {
					src := b.Row(jc + j)[pcc : pcc+kcc]
					for kg, v := range src {
						pan[kg*gemmNR+jj] = v
					}
				} else {
					for kg := 0; kg < kcc; kg++ {
						pan[kg*gemmNR+jj] = 0
					}
				}
			}
		}
	})
}

// packAPanels packs a[i0:i0+rows, pc:pc+kc] into gemmMR-row k-major
// panels, zero-padding the ragged last panel. Each worker packs only its
// own row chunk, so the buffer is worker-private (no sharing, no false
// sharing) and every A element is packed exactly once per depth block.
func packAPanels(buf []float64, a *Dense, i0, rows, pc, kc int) {
	for ip := 0; ip < rows; ip += gemmMR {
		pan := buf[(ip/gemmMR)*kc*gemmMR:][:kc*gemmMR]
		for r := 0; r < gemmMR; r++ {
			if ip+r < rows {
				src := a.Row(i0 + ip + r)[pc : pc+kc]
				for k, v := range src {
					pan[k*gemmMR+r] = v
				}
			} else {
				for k := 0; k < kc; k++ {
					pan[k*gemmMR+r] = 0
				}
			}
		}
	}
}

// packATPanels packs aᵀ[i0:i0+rows, pc:pc+kc] — the columns
// [i0, i0+rows) of a over its rows [pc, pc+kc) — into the same gemmMR-row
// k-major panels as packAPanels, so MulTSub's micro-kernel reads exactly
// the panels MulSub would pack from an explicit transpose.
func packATPanels(buf []float64, a *Dense, i0, rows, pc, kc int) {
	np := (rows + gemmMR - 1) / gemmMR
	for k := 0; k < kc; k++ {
		src := a.Row(pc + k)[i0 : i0+rows]
		for p := 0; p < np; p++ {
			dst := buf[p*kc*gemmMR+k*gemmMR:][:gemmMR]
			r0 := p * gemmMR
			for r := 0; r < gemmMR; r++ {
				if r0+r < rows {
					dst[r] = src[r0+r]
				} else {
					dst[r] = 0
				}
			}
		}
	}
}

// kernMicro computes one gemmMR×gemmNR output tile from a packed-A panel
// and a packed-B panel: eight register accumulators seeded from the
// destination rows (or from zero when ow is set), then updated over the
// full depth block with no intermediate stores. Seeding from dst keeps the
// per-element addition sequence identical to the plain accumulate loop.
func kernMicro(kc int, ap, bp []float64, d0, d1, d2, d3 []float64, ow bool) {
	_, _, _, _ = d0[1], d1[1], d2[1], d3[1]
	var c00, c01 float64
	var c10, c11 float64
	var c20, c21 float64
	var c30, c31 float64
	if !ow {
		c00, c01 = d0[0], d0[1]
		c10, c11 = d1[0], d1[1]
		c20, c21 = d2[0], d2[1]
		c30, c31 = d3[0], d3[1]
	}
	ap = ap[: gemmMR*kc : gemmMR*kc]
	bp = bp[: gemmNR*kc : gemmNR*kc]
	j := 0
	for k := 0; k+3 < len(ap) && j+1 < len(bp); k, j = k+4, j+2 {
		a0, a1, a2, a3 := ap[k], ap[k+1], ap[k+2], ap[k+3]
		b0, b1 := bp[j], bp[j+1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
	}
	d0[0], d0[1] = c00, c01
	d1[0], d1[1] = c10, c11
	d2[0], d2[1] = c20, c21
	d3[0], d3[1] = c30, c31
}

// kernEdge handles ragged tiles (mr < gemmMR and/or nr < gemmNR): one
// dot-product-style accumulator per live output element, seeded from the
// destination (or zero when ow is set), ascending k. The packed panels are
// zero-padded so the strides stay gemmMR/gemmNR.
func kernEdge(kc, mr, nr int, ap, bp []float64, dst *Dense, i0, j0 int, ow bool) {
	for r := 0; r < mr; r++ {
		drow := dst.Row(i0 + r)[j0 : j0+nr]
		for c := 0; c < nr; c++ {
			var acc float64
			if !ow {
				acc = drow[c]
			}
			for k := 0; k < kc; k++ {
				acc += ap[k*gemmMR+r] * bp[k*gemmNR+c]
			}
			drow[c] = acc
		}
	}
}

package randqb

import (
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
)

// tsqrWorkspace is one call site's grow-only storage for distTSQRLocal
// and distTSQR, so a steady-state orthogonalization allocates only the
// w×w blocks of the reduction tree. At one rank the rank-revealing orth
// is the whole factorization; at p > 1 the local block is copied into f
// and factored there (the caller's block stays intact for the
// rank-deficient fallback), and the local Q block and the gathered
// factors land in out and full.
type tsqrWorkspace struct {
	orth              mat.OrthWorkspace
	qr                mat.QRWorkspace
	f, pad, out, full mat.Buffer
}

// distTSQRLocal orthogonalizes a row-distributed tall matrix with a real
// communication-avoiding TSQR across the ranks — the El::qr::ExplicitTS
// kernel of §V. Each rank passes its own row block yLoc; local blocks are
// QR-factored, the w×w R factors reduce pairwise up a binary tree with
// actual messages, and the thin Q is reconstructed by propagating w×w
// carry blocks back down. The rank's own Q block is returned; the global
// factor is never materialized (the point of the distributed layout).
//
// When the final R is numerically rank deficient (the randomized sketch
// found fewer than w new directions), the blocks are assembled and every
// rank falls back to the replicated rank-revealing Orth, returning its
// slice, so column counts stay consistent across ranks.
//
// With one rank there is nothing to reduce: yLoc is all of the matrix
// and the rank-revealing Orth (bitwise equal to mat.Orth, without the
// allocations) is the whole factorization.
//
// The result is ws storage, valid until the next call on ws; yLoc is
// read only and may alias the previous result. At p > 1 the fallback
// sends ws.f by reference and distTSQR sends the result, so the caller
// must not call again on ws before a collective that hears from every
// rank (a Gather followed by a Bcast), as dist.AllgatherRowsInto
// requires.
func distTSQRLocal(c *dist.Comm, yLoc *mat.Dense, mTotal int, kernel string, ws *tsqrWorkspace) *mat.Dense {
	const (
		tagRUp   = 501
		tagCarry = 502
	)
	p := c.Size()
	w := yLoc.Cols
	if w == 0 {
		return mat.NewDense(yLoc.Rows, 0)
	}
	if p == 1 {
		c.Compute(2*float64(mTotal)*float64(w)*float64(w), kernel)
		return ws.orth.Orth(yLoc)
	}
	// Local QR, on a copy: yLoc may be ws.out, written below.
	c.Compute(2*float64(yLoc.Rows)*float64(w)*float64(w), kernel)
	f := ws.f.Shape(yLoc.Rows, w)
	f.CopyFrom(yLoc)
	qPad := padCols(ws.qr.QR(f), w, &ws.pad)
	rPad := mat.UpperRows(f, w, w) // fresh: it may travel up the tree

	// Reduction up the binary tree. Each participating rank remembers
	// the top/bottom slices of its merge Q factors for the downsweep.
	type merge struct {
		top, bot *mat.Dense // w×w halves of the 2w×w merge Q
		partner  int
	}
	var merges []merge
	r := rPad
	active := true
	for stride := 1; stride < p; stride <<= 1 {
		if !active {
			break
		}
		if c.Rank()%(2*stride) == 0 {
			partner := c.Rank() + stride
			if partner >= p {
				continue
			}
			theirs := c.Recv(partner, tagRUp).(*mat.Dense)
			stacked := mat.VStack(r, theirs)
			c.Compute(4*float64(w)*float64(w)*float64(w), kernel)
			q2, rr := mat.QR(stacked)
			merges = append(merges, merge{
				top:     q2.View(0, 0, w, q2.Cols).Clone(),
				bot:     q2.View(w, 0, w, q2.Cols).Clone(),
				partner: partner,
			})
			r = rr
		} else if c.Rank()%(2*stride) == stride {
			c.Send(c.Rank()-stride, tagRUp, r, 8*w*w)
			active = false
		}
	}
	// Root checks for rank deficiency and broadcasts the verdict.
	deficient := false
	if c.Rank() == 0 {
		d := maxAbsDiag(r)
		tol := 1e-13 * float64(mTotal) * d
		if d == 0 {
			deficient = true
		}
		for j := 0; j < w; j++ {
			if math.Abs(r.At(j, j)) <= tol {
				deficient = true
				break
			}
		}
	}
	deficient = c.Bcast(0, deficient, 1).(bool)
	if deficient {
		// Assemble the blocks and fall back to the replicated
		// rank-revealing Orth; return this rank's slice. The factored
		// f is free again, so the block travels as a fresh copy in f and
		// the output never aliases a payload still in flight.
		f.CopyFrom(yLoc)
		full := dist.AllgatherRowsInto(c, ws.full.Shape(mTotal, w), f)
		offset, _ := dist.RowShare(mTotal, p, c.Rank())
		c.Compute(2*float64(mTotal)*float64(w)*float64(w), kernel)
		q := ws.orth.Orth(full)
		out := ws.out.Shape(yLoc.Rows, q.Cols)
		out.CopyFrom(q.View(offset, 0, yLoc.Rows, q.Cols))
		return out
	}
	// Downsweep: root starts with the identity carry; each merge sends
	// the bottom-half carry to the partner and keeps the top half.
	var carry *mat.Dense
	if c.Rank() == 0 {
		carry = mat.Identity(w)
	} else {
		carry = c.Recv(findAbsorber(c.Rank()), tagCarry).(*mat.Dense).Clone()
	}
	for i := len(merges) - 1; i >= 0; i-- {
		mg := merges[i]
		c.Compute(4*float64(w)*float64(w)*float64(w), kernel)
		botCarry := mat.Mul(mg.bot, carry)
		c.Send(mg.partner, tagCarry, botCarry, 8*w*w)
		carry = mat.Mul(mg.top, carry)
	}
	// Local thin Q block.
	c.Compute(2*float64(yLoc.Rows)*float64(w)*float64(w), kernel)
	out := ws.out.Shape(yLoc.Rows, w)
	mat.MulInto(out, qPad, carry)
	return out
}

// distTSQR orthogonalizes a replicated tall matrix: it slices y by the
// standard row share, runs distTSQRLocal and allgathers the full factor
// into ws storage (valid until the next call on ws, under the same rule).
// With one rank the slice is all of y.
func distTSQR(c *dist.Comm, y *mat.Dense, kernel string, ws *tsqrWorkspace) *mat.Dense {
	p := c.Size()
	m, w := y.Dims()
	if w == 0 {
		return mat.NewDense(m, 0)
	}
	if p == 1 {
		return distTSQRLocal(c, y, m, kernel, ws)
	}
	lo, hi := dist.RowShare(m, p, c.Rank())
	qLoc := distTSQRLocal(c, y.View(lo, 0, hi-lo, w), m, kernel, ws)
	return dist.AllgatherRowsInto(c, ws.full.Shape(m, qLoc.Cols), qLoc)
}

// findAbsorber returns the rank that received this rank's R factor in
// the reduction tree: the rank with its lowest set bit cleared.
func findAbsorber(rank int) int {
	return rank &^ (rank & -rank)
}

// padCols pads a thin Q with zero columns up to width w (short blocks)
// in buf.
func padCols(q *mat.Dense, w int, buf *mat.Buffer) *mat.Dense {
	if q.Cols == w {
		return q
	}
	out := buf.ShapeZero(q.Rows, w)
	out.View(0, 0, q.Rows, q.Cols).CopyFrom(q)
	return out
}

func maxAbsDiag(r *mat.Dense) float64 {
	var m float64
	n := r.Rows
	if r.Cols < n {
		n = r.Cols
	}
	for j := 0; j < n; j++ {
		if a := math.Abs(r.At(j, j)); a > m {
			m = a
		}
	}
	return m
}

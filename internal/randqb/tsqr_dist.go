package randqb

import (
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
)

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
// and ws's rank-revealing Orth (bitwise equal to mat.Orth, without the
// allocations) is the whole factorization. Its result is a view into ws.
func distTSQRLocal(c *dist.Comm, yLoc *mat.Dense, mTotal int, kernel string, ws *mat.OrthWorkspace) *mat.Dense {
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
		return ws.Orth(yLoc)
	}
	// Local QR.
	c.Compute(2*float64(yLoc.Rows)*float64(w)*float64(w), kernel)
	qLoc, rLoc := mat.QR(yLoc)
	rPad := padSquare(rLoc, w)
	qPad := padCols(qLoc, w)

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
			r = padSquare(rr, w)
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
		// rank-revealing Orth; return this rank's slice.
		parts := c.Allgather(yLoc, 8*yLoc.Rows*w)
		full := parts[0].(*mat.Dense)
		offset := 0
		for rr := 0; rr < c.Rank(); rr++ {
			offset += parts[rr].(*mat.Dense).Rows
		}
		for rr := 1; rr < p; rr++ {
			full = mat.VStack(full, parts[rr].(*mat.Dense))
		}
		c.Compute(2*float64(mTotal)*float64(w)*float64(w), kernel)
		q := mat.Orth(full)
		return q.View(offset, 0, yLoc.Rows, q.Cols).Clone()
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
	return mat.Mul(qPad, carry)
}

// distTSQR orthogonalizes a replicated tall matrix: it slices y by the
// standard row share, runs distTSQRLocal and allgathers the full factor.
// With one rank the slice is all of y and the result is a view into ws.
func distTSQR(c *dist.Comm, y *mat.Dense, kernel string, ws *mat.OrthWorkspace) *mat.Dense {
	p := c.Size()
	m, w := y.Dims()
	if w == 0 {
		return mat.NewDense(m, 0)
	}
	if p == 1 {
		return distTSQRLocal(c, y, m, kernel, ws)
	}
	lo, hi := dist.RowShare(m, p, c.Rank())
	qLoc := distTSQRLocal(c, y.View(lo, 0, hi-lo, w).Clone(), m, kernel, ws)
	parts := c.Allgather(qLoc, 8*(hi-lo)*qLoc.Cols)
	out := parts[0].(*mat.Dense)
	for rr := 1; rr < p; rr++ {
		out = mat.VStack(out, parts[rr].(*mat.Dense))
	}
	return out
}

// findAbsorber returns the rank that received this rank's R factor in
// the reduction tree: the rank with its lowest set bit cleared.
func findAbsorber(rank int) int {
	return rank &^ (rank & -rank)
}

// padSquare pads an r×w upper-trapezoidal factor to w×w with zero rows.
func padSquare(r *mat.Dense, w int) *mat.Dense {
	if r.Rows == w {
		return r
	}
	out := mat.NewDense(w, w)
	out.View(0, 0, r.Rows, w).CopyFrom(r)
	return out
}

// padCols pads a thin Q with zero columns up to width w (short blocks).
func padCols(q *mat.Dense, w int) *mat.Dense {
	if q.Cols == w {
		return q
	}
	out := mat.NewDense(q.Rows, w)
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

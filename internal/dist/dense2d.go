package dist

import "sparselr/internal/mat"

// RowShare returns the contiguous block [lo, hi) of total items owned
// by part idx of an even partition into parts pieces: the 1-D row split
// of the distributed solvers.
func RowShare(total, parts, idx int) (lo, hi int) {
	base := total / parts
	rem := total % parts
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// SumReduce adds the ranks' partials of a replicated product: rank 0
// gathers them, sums them in rank order into sum, charges the p−1
// additions per entry to kernel and broadcasts the total, which every
// rank copies back into its partial and returns. With one rank the
// partial already is the sum.
//
// No payload is cloned (DESIGN.md §4c). Rank 0 reads every partial
// before it sends the broadcast, so a rank's partial is its own again
// once SumReduce returns. Rank 0 writes sum again only in a later
// SumReduce, after that call's Gather has heard from every rank, each
// of which copied the previous total out before sending. Rank 0 must
// use sum for nothing else.
func SumReduce(c *Comm, partial *mat.Dense, sum *mat.Buffer, kernel string) *mat.Dense {
	p := c.Size()
	if p == 1 {
		return partial
	}
	bytes := 8 * partial.Rows * partial.Cols
	parts := c.Gather(0, partial, bytes)
	var total *mat.Dense
	if c.Rank() == 0 {
		total = sum.Shape(partial.Rows, partial.Cols)
		total.CopyFrom(parts[0].(*mat.Dense))
		for r := 1; r < p; r++ {
			total.Add(parts[r].(*mat.Dense))
		}
		c.Compute(float64(p-1)*float64(partial.Rows)*float64(partial.Cols), kernel)
	}
	partial.CopyFrom(c.Bcast(0, total, bytes).(*mat.Dense))
	return partial
}

// AllgatherRowsInto stacks the ranks' row blocks loc, in rank order,
// into dst on every rank and returns it; dst has the blocks' total rows
// and loc's columns. loc travels by reference and every rank copies it
// out before returning, but not in lockstep: its owner must not write
// it again until a later collective in which it hears, directly or
// through rank 0, from every rank — a Gather followed by a Bcast.
func AllgatherRowsInto(c *Comm, dst, loc *mat.Dense) *mat.Dense {
	row := 0
	for _, part := range c.Allgather(loc, 8*loc.Rows*loc.Cols) {
		blk := part.(*mat.Dense)
		for i := 0; i < blk.Rows; i++ {
			copy(dst.Row(row+i), blk.Row(i))
		}
		row += blk.Rows
	}
	return dst
}

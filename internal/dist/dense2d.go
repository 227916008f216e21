package dist

import (
	"fmt"

	"sparselr/internal/mat"
)

// Grid arranges the ranks of a Comm into a Pr×Pc process grid — the
// elemental-style 2D layout the paper's RandQB_EI implementation gets
// from the Elemental framework ("Elemental scatters dense matrices among
// processes via an elemental distribution", §V). Rank r sits at grid row
// r/Pc, grid column r%Pc.
type Grid struct {
	c      *Comm
	pr, pc int
}

// NewGrid builds a Pr×Pc grid over the communicator. Pr·Pc must equal
// the communicator size.
func NewGrid(c *Comm, pr, pc int) *Grid {
	if pr < 1 || pc < 1 || pr*pc != c.Size() {
		panic(fmt.Sprintf("dist: grid %d×%d does not match %d ranks", pr, pc, c.Size()))
	}
	return &Grid{c: c, pr: pr, pc: pc}
}

// Dims returns the grid shape.
func (g *Grid) Dims() (pr, pc int) { return g.pr, g.pc }

// Row returns this rank's grid row.
func (g *Grid) Row() int { return g.c.Rank() / g.pc }

// Col returns this rank's grid column.
func (g *Grid) Col() int { return g.c.Rank() % g.pc }

// rankAt returns the communicator rank at grid position (i, j).
func (g *Grid) rankAt(i, j int) int { return i*g.pc + j }

// rowBcast broadcasts data from the rank at grid column rootCol within
// this rank's grid row; every rank of the row returns the payload.
// Traces and per-rank histograms see it as a "RowBcast" collective.
func (g *Grid) rowBcast(rootCol int, data interface{}, bytes int, tag int) interface{} {
	top := g.c.beginCollective("RowBcast")
	defer g.c.endCollective(top)
	me := g.Col()
	if me == rootCol {
		for j := 0; j < g.pc; j++ {
			if j != rootCol {
				g.c.Send(g.rankAt(g.Row(), j), tag, data, bytes)
			}
		}
		return data
	}
	return g.c.Recv(g.rankAt(g.Row(), rootCol), tag)
}

// colBcast broadcasts data from the rank at grid row rootRow within this
// rank's grid column; a "ColBcast" collective in traces and histograms.
func (g *Grid) colBcast(rootRow int, data interface{}, bytes int, tag int) interface{} {
	top := g.c.beginCollective("ColBcast")
	defer g.c.endCollective(top)
	me := g.Row()
	if me == rootRow {
		for i := 0; i < g.pr; i++ {
			if i != rootRow {
				g.c.Send(g.rankAt(i, g.Col()), tag, data, bytes)
			}
		}
		return data
	}
	return g.c.Recv(g.rankAt(rootRow, g.Col()), tag)
}

// DistDense is a dense matrix block-distributed over a 2D grid: the rank
// at grid position (i, j) owns the contiguous row range share(M, Pr, i)
// and column range share(N, Pc, j).
type DistDense struct {
	G     *Grid
	M, N  int
	Local *mat.Dense // this rank's block
}

// RowShare returns the contiguous block [lo, hi) of total items owned
// by part idx of an even partition into parts pieces: the 1-D row split
// of the distributed solvers, and the split along both axes of a Grid.
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

// RowRange returns this rank's global row range.
func (d *DistDense) RowRange() (lo, hi int) { return RowShare(d.M, d.G.pr, d.G.Row()) }

// ColRange returns this rank's global column range.
func (d *DistDense) ColRange() (lo, hi int) { return RowShare(d.N, d.G.pc, d.G.Col()) }

// NewDistDense allocates a zero M×N distributed matrix on the grid.
func NewDistDense(g *Grid, m, n int) *DistDense {
	d := &DistDense{G: g, M: m, N: n}
	rlo, rhi := RowShare(m, g.pr, g.Row())
	clo, chi := RowShare(n, g.pc, g.Col())
	d.Local = mat.NewDense(rhi-rlo, chi-clo)
	return d
}

// ScatterDense distributes a replicated global matrix: each rank slices
// out its own block (the scatter itself is free because every rank
// already holds the global data; the paper's El distribution does the
// same when the matrix originates replicated).
func ScatterDense(g *Grid, a *mat.Dense) *DistDense {
	d := &DistDense{G: g, M: a.Rows, N: a.Cols}
	rlo, rhi := RowShare(a.Rows, g.pr, g.Row())
	clo, chi := RowShare(a.Cols, g.pc, g.Col())
	d.Local = a.View(rlo, clo, rhi-rlo, chi-clo).Clone()
	return d
}

// Gather reassembles the global matrix on every rank (allgather of all
// blocks through the communicator).
func (d *DistDense) Gather() *mat.Dense {
	g := d.G
	bytes := 8 * d.Local.Rows * d.Local.Cols
	parts := g.c.Allgather(d.Local, bytes)
	out := mat.NewDense(d.M, d.N)
	for r := 0; r < g.c.Size(); r++ {
		i, j := r/g.pc, r%g.pc
		rlo, _ := RowShare(d.M, g.pr, i)
		clo, chi := RowShare(d.N, g.pc, j)
		blk := parts[r].(*mat.Dense)
		for rr := 0; rr < blk.Rows; rr++ {
			copy(out.View(rlo+rr, clo, 1, chi-clo).Row(0), blk.Row(rr))
		}
	}
	return out
}

// SUMMA computes C = A·B on the grid with the scalable universal matrix
// multiplication algorithm: for each inner-dimension segment, the owning
// grid column broadcasts its A panel along grid rows, the owning grid
// row broadcasts its B panel along grid columns, and every rank
// accumulates the outer product into its C block. This is the El::Gemm
// analog of §V.
func SUMMA(a, b *DistDense) *DistDense {
	if a.G != b.G {
		panic("dist: SUMMA operands on different grids")
	}
	if a.N != b.M {
		panic(fmt.Sprintf("dist: SUMMA inner dimension mismatch %d vs %d", a.N, b.M))
	}
	g := a.G
	cOut := NewDistDense(g, a.M, b.N)
	myRlo, myRhi := cOut.RowRange()
	myClo, myChi := cOut.ColRange()
	_ = myRhi
	_ = myChi
	// Inner-dimension segments: the union of A's column partition (by
	// grid columns) and B's row partition (by grid rows).
	cuts := map[int]bool{0: true, a.N: true}
	for j := 0; j <= g.pc; j++ {
		lo, _ := RowShare(a.N, g.pc, min(j, g.pc-1))
		cuts[lo] = true
	}
	for i := 0; i <= g.pr; i++ {
		lo, _ := RowShare(b.M, g.pr, min(i, g.pr-1))
		cuts[lo] = true
	}
	var segs []int
	for s := range cuts {
		segs = append(segs, s)
	}
	sortInts(segs)
	if g.c.Tracing() {
		g.c.Annotate(fmt.Sprintf("SUMMA %dx%dx%d", a.M, a.N, b.N))
	}
	const tagA, tagB = 601, 602
	for si := 0; si+1 < len(segs); si++ {
		s0, s1 := segs[si], segs[si+1]
		if s0 >= s1 {
			continue
		}
		// Owner of A's columns [s0, s1): the grid column whose share
		// contains s0.
		ownCol := ownerOf(a.N, g.pc, s0)
		ownRow := ownerOf(b.M, g.pr, s0)
		// A panel: my block's rows × segment columns (held by ownCol).
		var aPanel *mat.Dense
		if g.Col() == ownCol {
			clo, _ := RowShare(a.N, g.pc, ownCol)
			aPanel = a.Local.View(0, s0-clo, a.Local.Rows, s1-s0).Clone()
		}
		// Constant tags are safe: the mailbox preserves FIFO order per
		// (source, tag), so segment panels from one owner arrive in
		// program order.
		aPanel = g.rowBcast(ownCol, aPanel, 8*(myRhi-myRlo)*(s1-s0), tagA).(*mat.Dense)
		// B panel: segment rows × my block's columns (held by ownRow).
		var bPanel *mat.Dense
		if g.Row() == ownRow {
			rlo, _ := RowShare(b.M, g.pr, ownRow)
			bPanel = b.Local.View(s0-rlo, 0, s1-s0, b.Local.Cols).Clone()
		}
		bPanel = g.colBcast(ownRow, bPanel, 8*(s1-s0)*(myChi-myClo), tagB).(*mat.Dense)
		// Accumulate.
		g.c.Compute(2*float64(aPanel.Rows)*float64(s1-s0)*float64(bPanel.Cols), "SUMMA")
		mat.MulAdd(cOut.Local, aPanel, bPanel)
	}
	return cOut
}

// ownerOf returns the partition index whose share of total contains pos.
func ownerOf(total, parts, pos int) int {
	for i := 0; i < parts; i++ {
		lo, hi := RowShare(total, parts, i)
		if pos >= lo && pos < hi {
			return i
		}
	}
	return parts - 1
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

package lucrtp

import (
	"fmt"
	"math"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/sparse"
)

// FactorDist runs LU_CRTP/ILUT_CRTP inside a dist.Run body: the column
// tournament, the row tournament, the triangular solve and the Schur
// complement are executed SPMD-style across the ranks with the data
// movement of §V (block-cyclic column distribution for A⁽ⁱ⁾, scatter of
// Ā₂₁, broadcast of Ā₁₁, allgather of the solve result). Every rank
// returns an identical *Result; per-rank virtual-time and per-kernel
// attributions accumulate in the Comm and are read from dist.Run's
// Result (Figs 4–5).
//
// Kernel labels (matching Fig 5): colQR_TP/{local,global,finalR},
// rowQR_TP/{local,global,finalR}, panelQR, rowPerm, triSolve, schur,
// threshold.
func FactorDist(c *dist.Comm, a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("lucrtp: empty matrix %d×%d", m, n)
	}
	k := opts.BlockSize
	p := c.Size()
	normA := a.FrobNorm()
	nnzA := a.NNZ()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}

	res := &Result{NormA: normA, RowPerm: identity(m), ColPerm: identity(n)}
	acur := a

	// Resume from the newest complete checkpoint cut, if one exists. The
	// COLAMD preamble is skipped on resume: the restored Schur complement
	// and permutations already embed the reordering.
	startIter := 0
	resumed := false
	var lEnt, uEnt []entry
	z := 0
	mu, phi, t2 := 0.0, 0.0, 0.0
	if opts.Checkpoint != nil {
		if it, states, ok := opts.Checkpoint.Latest(p); ok {
			s := states[c.Rank()].(*luSnapshot)
			startIter = it
			resumed = true
			acur = s.acur.Clone()
			lEnt = append([]entry(nil), s.lEnt...)
			uEnt = append([]entry(nil), s.uEnt...)
			z = s.z
			mu, phi, t2 = s.mu, s.phi, s.t2
			res.RowPerm = append([]int(nil), s.rowOrder...)
			res.ColPerm = append([]int(nil), s.colOrder...)
			res.R11First = s.r11First
			res.Mu, res.Phi = s.resMu, s.resPhi
			res.ErrHistory = append([]float64(nil), s.errHistory...)
			res.FillHistory = append([]float64(nil), s.fillHistory...)
			res.NNZHistory = append([]int(nil), s.nnzHistory...)
			res.Iters = it
			res.Rank = s.rank
			res.ErrIndicator = s.errIndicator
			res.DiscardedCols = s.discardedCols
			res.DroppedNorm2 = s.droppedNorm2
			res.DroppedNorm1 = s.droppedNorm1
			res.DroppedNNZ = s.droppedNNZ
			res.ControlTriggered = s.controlTriggered
			res.HitNumRank = s.hitNumRank
		}
	}
	if !resumed && opts.Reorder != ReorderOff {
		// COLAMD is "a local, intrinsically sequential reordering
		// heuristic ... applied as a preprocessing step" (§V): rank 0
		// computes it and broadcasts the permutation.
		var perm []int
		if c.Rank() == 0 {
			perm = ordering.FillReducingOrder(a)
			c.Compute(float64(8*nnzA), "colamd")
		}
		// Clone the broadcast slice: ranks mutate their permutation
		// vectors in place, and message payloads share backing arrays.
		perm = append([]int(nil), c.Bcast(0, perm, 8*n).([]int)...)
		res.ColPerm = perm
		acur = a.PermuteCols(perm)
	}
	rowOrder := res.RowPerm
	colOrder := res.ColPerm
	thresholdOn := opts.Threshold != NoThreshold
	// This rank's tournament workspace. Ranks are goroutines, so each
	// owns one; they never share it.
	var ws qrtp.Workspace

	for iter := startIter + 1; ; iter++ {
		if c.Tracing() {
			c.Annotate(fmt.Sprintf("LU_CRTP iter %d", iter))
		}
		mcur, ncur := acur.Dims()
		keff := min(k, min(mcur, ncur), maxRank-z)
		if keff <= 0 {
			break
		}
		// --- Column QR_TP (distributed tournament) ---
		csc := acur.ToCSC()
		myCols := qrtp.BlockCyclicColumns(ncur, p, c.Rank(), keff)
		if opts.DiscardTol > 0 {
			// Column discarding (ref [2]): each rank prunes negligible
			// candidates from its own block before the tournament.
			limit2 := opts.DiscardTol * opts.Tol * normA / math.Sqrt(float64(n))
			limit2 *= limit2
			norms2 := acur.ColNorms2()
			total := 0
			for _, n2 := range norms2 {
				if n2 > limit2 {
					total++
				}
			}
			if total >= keff {
				kept := myCols[:0]
				for _, j := range myCols {
					if norms2[j] > limit2 {
						kept = append(kept, j)
					}
				}
				res.DiscardedCols += len(myCols) - len(kept)
				myCols = kept
			}
		}
		colRes := ws.SelectColumnsDist(c, csc, myCols, keff)
		lcp := qrtp.Permutation(colRes.Winners, ncur)
		// Column permutations are implicit during tournament pivoting
		// (Fig 5 caption) — no kernel charge.
		acur = acur.PermuteCols(lcp)
		applyTail(colOrder, z, lcp)

		// --- Panel QR on the winning columns (owner computes, then the
		// orthogonal panel is scattered, §V) ---
		panelCols := make([]int, keff)
		for t := range panelCols {
			panelCols[t] = t
		}
		panel := acur.ExtractColsDense(panelCols)
		panelNNZ := 0
		for _, v := range panel.Data {
			if v != 0 {
				panelNNZ++
			}
		}
		if c.Rank() == 0 {
			c.Compute(4*float64(keff)*float64(panelNNZ)+2*float64(mcur)*float64(keff)*float64(keff), "panelQR")
		}
		qk, rPanel := mat.QR(panel)
		c.Bcast(0, nil, 8*mcur*keff) // scatter of Q_k
		c.Elapse(0, "panelQR")       // ensure the kernel appears on every rank

		if iter == 1 {
			res.R11First = math.Abs(rPanel.At(0, 0))
			if thresholdOn {
				switch opts.Threshold {
				case FixedThreshold:
					mu = opts.Mu
				default:
					mu = opts.Tol * res.R11First / (float64(opts.EstIters) * math.Sqrt(float64(nnzA)))
				}
				phi = opts.Phi
				if phi <= 0 {
					phi = opts.Tol * res.R11First
				}
				res.Mu, res.Phi = mu, phi
			}
		}
		rankTol := 1e-13 * math.Max(res.R11First, math.Abs(rPanel.At(0, 0)))
		sig := 0
		for t := 0; t < keff; t++ {
			if math.Abs(rPanel.At(t, t)) > rankTol {
				sig++
			} else {
				break
			}
		}
		lastBlock := false
		if sig < keff {
			if sig == 0 {
				res.HitNumRank = true
				break
			}
			if thresholdOn && !opts.StopAtNumericalRank {
				return res, fmt.Errorf("%w: panel diagonal collapsed at iteration %d", ErrBreakdown, iter)
			}
			keff = sig
			qk = qk.View(0, 0, mcur, keff).Clone()
			lastBlock = true
			res.HitNumRank = true
		}

		// --- Row QR_TP on Q_kᵀ (distributed tournament over rows) ---
		myRows := qrtp.BlockCyclicColumns(mcur, p, c.Rank(), keff)
		rowRes := ws.SelectRowsDist(c, qk, myRows, keff)
		lrp := qrtp.Permutation(rowRes.Winners, mcur)
		// Local row permutations of A⁽ⁱ⁾ after row QR_TP are one of the
		// expensive kernels when fill-in is large (Fig 5): each rank
		// permutes its share of the nonzeros.
		c.Compute(4*float64(acur.NNZ())/float64(p), "rowPerm")
		acur = acur.PermuteRows(lrp)
		qk = qk.PermuteRows(lrp)
		applyTail(rowOrder, z, lrp)

		// --- Partition ---
		a11 := acur.ExtractBlock(0, keff, 0, keff).ToDense()
		a12 := acur.ExtractBlock(0, keff, keff, ncur)
		a21 := acur.ExtractBlock(keff, mcur, 0, keff)
		a22 := acur.ExtractBlock(keff, mcur, keff, ncur)

		// --- Triangular solve X = Ā₂₁Ā₁₁⁻¹: Ā₂₁ scattered by rows,
		// Ā₁₁ broadcast, result allgathered (§V) ---
		c.Bcast(0, nil, 8*keff*keff) // broadcast of Ā₁₁
		lo, hi := dist.RowShare(a21.Rows, p, c.Rank())
		var xsp *sparse.CSR
		{
			var myX *mat.Dense
			var err error
			var src *mat.Dense
			if opts.StableL {
				q21 := qk.View(keff, 0, mcur-keff, keff).Clone()
				src = q21
			} else {
				src = a21.ToDense()
			}
			myRowsBlock := src.View(lo, 0, hi-lo, src.Cols).Clone()
			var pivot *mat.Dense
			if opts.StableL {
				pivot = qk.View(0, 0, keff, keff).Clone()
			} else {
				pivot = a11
			}
			myX, err = mat.SolveRight(myRowsBlock, pivot)
			if err != nil {
				// All ranks hit the same singular pivot deterministically.
				return res, fmt.Errorf("%w: iteration %d: %v", ErrBreakdown, iter, err)
			}
			c.Compute(2*float64(hi-lo)*float64(keff)*float64(keff), "triSolve")
			myXsp := sparse.FromDense(myX, 0)
			parts := c.Allgather(myXsp, 12*myXsp.NNZ())
			blocks := make([]*sparse.CSR, p)
			for r := 0; r < p; r++ {
				blocks[r] = parts[r].(*sparse.CSR)
			}
			xsp = sparse.VStackCSR(blocks...)
		}
		if xsp.Cols == 0 {
			xsp = sparse.NewCSR(a21.Rows, keff)
		}

		// --- Append factors (replicated bookkeeping) ---
		for tIdx := 0; tIdx < keff; tIdx++ {
			lEnt = append(lEnt, entry{rowOrder[z+tIdx], z + tIdx, 1})
			for cc := 0; cc < keff; cc++ {
				if v := a11.At(tIdx, cc); v != 0 {
					uEnt = append(uEnt, entry{z + tIdx, colOrder[z+cc], v})
				}
			}
			cols, vals := a12.RowView(tIdx)
			for kk, cc := range cols {
				uEnt = append(uEnt, entry{z + tIdx, colOrder[z+keff+cc], vals[kk]})
			}
		}
		for r := 0; r < xsp.Rows; r++ {
			cols, vals := xsp.RowView(r)
			for kk, cc := range cols {
				lEnt = append(lEnt, entry{rowOrder[z+keff+r], z + cc, vals[kk]})
			}
		}

		// --- Schur complement: each rank computes its row share, then
		// an Allgather distributes S (§V) ---
		myXBlock := xsp.ExtractBlock(lo, hi, 0, keff)
		myA22 := a22.ExtractBlock(lo, hi, 0, a22.Cols)
		c.Compute(sparse.SpGEMMFlops(myXBlock, a12)+2*float64(myA22.NNZ()), "schur")
		myS := sparse.Add(1, myA22, -1, sparse.SpGEMM(myXBlock, a12))
		sParts := c.Allgather(myS, 12*myS.NNZ())
		sBlocks := make([]*sparse.CSR, p)
		for r := 0; r < p; r++ {
			sBlocks[r] = sParts[r].(*sparse.CSR)
		}
		s := sparse.VStackCSR(sBlocks...)
		if s.Rows == 0 {
			s = sparse.NewCSR(a22.Rows, a22.Cols)
		}

		e := s.FrobNorm()
		res.ErrHistory = append(res.ErrHistory, e)
		res.FillHistory = append(res.FillHistory, s.Density())
		res.NNZHistory = append(res.NNZHistory, s.NNZ())
		res.Iters = iter
		z += keff
		res.Rank = z

		if e < opts.Tol*normA {
			res.Converged = true
			res.ErrIndicator = e
			break
		}
		if lastBlock || z >= maxRank || s.Rows == 0 || s.Cols == 0 {
			res.ErrIndicator = e
			break
		}

		if thresholdOn && mu > 0 {
			c.Compute(2*float64(s.NNZ())/float64(p), "threshold")
			var kept, dropped *sparse.CSR
			if opts.Threshold == AggressiveThreshold {
				budget := phi*phi - t2
				if budget < 0 {
					budget = 0
				}
				kept, dropped = s.ThresholdSmallest(phi, budget)
			} else {
				kept, dropped = s.Threshold(mu)
			}
			dn2 := dropped.FrobNorm2()
			if math.Sqrt(t2+dn2) >= phi {
				mu = 0
				res.Mu = 0
				res.ControlTriggered = true
			} else {
				t2 += dn2
				res.DroppedNorm2 = t2
				res.DroppedNorm1 += math.Sqrt(dn2)
				res.DroppedNNZ += dropped.NNZ()
				s = kept
			}
		}
		acur = s
		res.ErrIndicator = e
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			opts.Checkpoint.Save(iter, c.Rank(), &luSnapshot{
				acur:             acur.Clone(),
				lEnt:             append([]entry(nil), lEnt...),
				uEnt:             append([]entry(nil), uEnt...),
				z:                z,
				mu:               mu,
				phi:              phi,
				t2:               t2,
				rowOrder:         append([]int(nil), rowOrder...),
				colOrder:         append([]int(nil), colOrder...),
				r11First:         res.R11First,
				resMu:            res.Mu,
				resPhi:           res.Phi,
				errHistory:       append([]float64(nil), res.ErrHistory...),
				fillHistory:      append([]float64(nil), res.FillHistory...),
				nnzHistory:       append([]int(nil), res.NNZHistory...),
				rank:             res.Rank,
				errIndicator:     res.ErrIndicator,
				discardedCols:    res.DiscardedCols,
				droppedNorm2:     res.DroppedNorm2,
				droppedNorm1:     res.DroppedNorm1,
				droppedNNZ:       res.DroppedNNZ,
				controlTriggered: res.ControlTriggered,
				hitNumRank:       res.HitNumRank,
			})
		}
	}
	if len(res.ErrHistory) > 0 {
		res.ErrIndicator = res.ErrHistory[len(res.ErrHistory)-1]
	}
	res.L, res.U = assembleFactors(lEnt, uEnt, rowOrder, colOrder, m, n, res.Rank)
	return res, nil
}

// luSnapshot is one rank's LU_CRTP/ILUT_CRTP loop state at an iteration
// boundary. The loop is fully replicated, so every rank snapshots the
// same values; all fields are deep copies.
type luSnapshot struct {
	acur               *sparse.CSR
	lEnt, uEnt         []entry
	z                  int
	mu, phi, t2        float64
	rowOrder, colOrder []int
	r11First           float64
	resMu, resPhi      float64
	errHistory         []float64
	fillHistory        []float64
	nnzHistory         []int
	rank               int
	errIndicator       float64
	discardedCols      int
	droppedNorm2       float64
	droppedNorm1       float64
	droppedNNZ         int
	controlTriggered   bool
	hitNumRank         bool
}

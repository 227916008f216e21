package lucrtp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sparselr/internal/dist"
	"sparselr/internal/mat"
	"sparselr/internal/ordering"
	"sparselr/internal/qrtp"
	"sparselr/internal/sparse"
)

// ThresholdMode selects how ILUT_CRTP drops Schur-complement entries.
type ThresholdMode int

const (
	// NoThreshold runs plain LU_CRTP.
	NoThreshold ThresholdMode = iota
	// AutoThreshold derives μ from eq (24): μ = τ|R⁽¹⁾(1,1)|/(u·√nnz(A)).
	AutoThreshold
	// FixedThreshold uses the caller-provided Mu.
	FixedThreshold
	// AggressiveThreshold sorts candidate entries below φ and drops the
	// smallest ones until the budget (22) would be violated (§VI-A).
	AggressiveThreshold
)

// ReorderMode selects the COLAMD preprocessing policy (§V and the Fig 1
// ablation).
type ReorderMode int

const (
	// ReorderFirst applies COLAMD + etree postorder once, before the
	// first iteration (the paper's default pipeline).
	ReorderFirst ReorderMode = iota
	// ReorderOff disables fill-reducing preprocessing.
	ReorderOff
	// ReorderEvery re-applies COLAMD to the Schur complement in every
	// iteration (the yellow-dotted ablation line of Fig 1 left).
	ReorderEvery
)

// Options configures a factorization.
type Options struct {
	BlockSize int     // k; defaults to 8
	Tol       float64 // τ in (1); required unless StopAtNumericalRank
	MaxRank   int     // cap on K; 0 means min(m, n)
	Threshold ThresholdMode
	Mu        float64 // threshold for FixedThreshold
	EstIters  int     // u in eq (24); 0 defaults to 10
	Phi       float64 // threshold control φ; 0 defaults to τ|R⁽¹⁾(1,1)|
	Reorder   ReorderMode
	// StopAtNumericalRank additionally stops when the panel QR diagonal
	// collapses (the Grigori termination; used for the SJSU suite runs
	// "stopped at the numerical rank").
	StopAtNumericalRank bool
	// StableL computes L₂₁ as Q₂₁Q₁₁⁻¹ instead of Ā₂₁Ā₁₁⁻¹ — the
	// alternative computation of §II-B3 that benefits stability but
	// introduces additional nonzeros.
	StableL bool
	// CaptureDropped accumulates the explicit threshold matrix T of
	// eq (10) in Result.Dropped. §III-B notes explicit formulations
	// "may produce high memory cost", so this is opt-in and intended
	// for analysis and verification, not production runs.
	CaptureDropped bool
	// DiscardTol > 0 enables the column-discarding enhancement the
	// paper's related work cites from Cayrols' thesis (ref [2]): columns
	// of A⁽ⁱ⁾ whose Euclidean norm falls below DiscardTol·τ·‖A‖_F/√n
	// are excluded from the column tournament (they cannot carry a
	// significant pivot while the error indicator is still above
	// τ‖A‖_F), reducing the tournament work. The columns stay in the
	// matrix and in the Schur updates, so the error indicator and the
	// factors are unaffected in exact arithmetic. DiscardTol = 1 is a
	// reasonable setting; larger values prune more aggressively.
	DiscardTol float64

	// CheckpointEvery > 0 makes each rank save its loop state into
	// Checkpoint at the end of every CheckpointEvery-th iteration; a
	// complete snapshot already in Checkpoint for the same number of
	// ranks (one for Factor) resumes the run (the COLAMD preamble is
	// skipped — the restored Schur complement embeds it) to a
	// bit-identical result.
	CheckpointEvery int
	Checkpoint      *dist.CheckpointStore
}

func (o *Options) defaults() {
	if o.BlockSize <= 0 {
		o.BlockSize = 8
	}
	if o.EstIters <= 0 {
		o.EstIters = 10
	}
}

// ErrBreakdown reports the numerical failure mode analyzed in §III-A:
// the pivot block Ā₁₁ became singular (for ILUT_CRTP typically because
// thresholding destroyed rank, violating bound (20)).
var ErrBreakdown = errors.New("lucrtp: pivot block is singular (rank deficiency)")

// Result holds the factorization output and the per-iteration telemetry
// the experiments consume.
type Result struct {
	L, U    *sparse.CSR // truncated factors of P_r·A·P_c
	RowPerm []int       // P_r: row i of P_r·A·P_c is row RowPerm[i] of A
	ColPerm []int       // P_c: col j of A·P_c is col ColPerm[j] of A
	Rank    int         // K
	Iters   int
	NormA   float64 // ‖A‖_F

	ErrIndicator float64 // final ‖A⁽ⁱ⁺¹⁾‖_F (eq 9 / eq 26)
	Converged    bool    // ErrIndicator < τ‖A‖_F
	HitNumRank   bool    // stopped by the numerical-rank criterion

	// Per-iteration series (index 0 = after iteration 1).
	ErrHistory  []float64 // error indicator after each iteration
	FillHistory []float64 // density of A⁽ⁱ⁺¹⁾ (Fig 1 right)

	// ILUT_CRTP accounting.
	Mu               float64 // threshold used (0 when inactive)
	Phi              float64 // threshold control bound
	DroppedNorm2     float64 // t = Σ‖T̃⁽ʲ⁾‖²_F (eq 22 running sum)
	DroppedNorm1     float64 // Σ‖T̃⁽ʲ⁾‖_F, the rigorous triangle bound on ‖T‖_F
	DroppedNNZ       int     // total entries dropped
	ControlTriggered bool    // line 10 of Alg 3 fired (undo + μ=0)
	R11First         float64 // |R⁽¹⁾(1,1)| (eq 23 realization)
	// Dropped is the explicit threshold matrix T of eq (10), in the
	// coordinates of P_r·A·P_c, populated when Options.CaptureDropped
	// is set: P_r·Ã·P_c = P_r·A·P_c + T.
	Dropped *sparse.CSR
	// DiscardedCols counts tournament candidates pruned by the
	// column-discarding enhancement, summed over iterations.
	DiscardedCols int
}

// NNZFactors returns nnz(L)+nnz(U), the quantity behind ratio_NNZ in
// Table II and Fig 1.
func (r *Result) NNZFactors() int { return r.L.NNZ() + r.U.NNZ() }

// entry buffers a captured T̃ entry in original row and column ids
// until the final permutations are known.
type entry struct {
	i, j int
	v    float64
}

// Factor computes the fixed-precision truncated factorization of a with
// LU_CRTP (Options.Threshold == NoThreshold) or ILUT_CRTP. It runs
// FactorDist on a one-rank world.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	r, _, err := dist.RunRoot(1, dist.DefaultConfig(), func(c *dist.Comm) (*Result, error) { return FactorDist(c, a, opts) })
	return r, err
}

// FactorDist runs LU_CRTP/ILUT_CRTP inside a dist.RunE body: the column
// tournament, the row tournament, the triangular solve and the Schur
// complement are executed SPMD-style across the ranks with the data
// movement of §V (block-cyclic column distribution for A⁽ⁱ⁾, scatter of
// Ā₂₁, broadcast of Ā₁₁, allgather of the solve result). Every rank
// returns an identical *Result; per-rank virtual-time and per-kernel
// attributions accumulate in the Comm and are read from dist.RunE's
// Result (Figs 4–5). On one rank the solve runs on the whole block,
// skipping the row-share copy only distribution needs, and the Schur
// update's row share is all of Ā₂₂; every collective and charge stays.
//
// Kernel labels (matching Fig 5): colamd, colQR_TP/{local,global,finalR},
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
	f := newFactorStore(m, n)
	var tEnt []entry
	z := 0
	mu, phi, t2 := 0.0, 0.0, 0.0 // t2: running Σ‖T̃⁽ʲ⁾‖²_F
	if opts.Checkpoint != nil {
		if it, states, ok := opts.Checkpoint.Latest(p); ok {
			s := states[c.Rank()].(*luSnapshot)
			startIter = it
			resumed = true
			acur = s.acur.Clone()
			f = factorStore{lt: *s.lt.Clone(), u: *s.u.Clone()}
			tEnt = append([]entry(nil), s.tEnt...)
			z = s.z
			mu, phi, t2 = s.mu, s.phi, s.t2
			res.RowPerm = append([]int(nil), s.rowOrder...)
			res.ColPerm = append([]int(nil), s.colOrder...)
			res.R11First = s.r11First
			res.Mu, res.Phi = s.resMu, s.resPhi
			res.ErrHistory = append([]float64(nil), s.errHistory...)
			res.FillHistory = append([]float64(nil), s.fillHistory...)
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
		res.ColPerm = fillReducingOrder(c, a)
		acur = a.PermuteCols(res.ColPerm)
	}
	rowOrder := res.RowPerm
	colOrder := res.ColPerm
	thresholdOn := opts.Threshold != NoThreshold
	var ws workspace

	for iter := startIter + 1; ; iter++ {
		if c.Tracing() {
			c.Annotate(fmt.Sprintf("LU_CRTP iter %d", iter))
		}
		mcur, ncur := acur.Dims()
		keff := min(k, min(mcur, ncur), maxRank-z)
		if keff <= 0 {
			break
		}
		if opts.Reorder == ReorderEvery && iter > 1 {
			perm := fillReducingOrder(c, acur)
			acur = acur.PermuteCols(perm)
			ws.applyTail(colOrder, z, perm)
		}
		// --- Column QR_TP (distributed tournament, line 5 of Alg 2) ---
		ws.reserve(acur.NNZ())
		csc := &ws.csc
		acur.ToCSCInto(csc)
		ws.myCols = qrtp.AppendBlockCyclic(ws.myCols[:0], ncur, p, c.Rank(), keff)
		myCols := ws.myCols
		if opts.DiscardTol > 0 {
			// Column discarding (ref [2]): each rank prunes negligible
			// candidates from its own block before the tournament.
			limit2 := opts.DiscardTol * opts.Tol * normA / math.Sqrt(float64(n))
			limit2 *= limit2
			ws.norms2 = acur.ColNorms2(ws.norms2)
			norms2 := ws.norms2
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
		colRes := ws.tour.SelectColumnsDist(c, csc, myCols, keff)
		ws.lcp = ws.permutation(ws.lcp, colRes.Winners, ncur)
		// Column permutations are implicit during tournament pivoting
		// (Fig 5 caption) — no kernel charge. A⁽ⁱ⁾ itself is permuted
		// once, by both winner lists, after the row tournament.
		ws.applyTail(colOrder, z, ws.lcp)

		// --- Panel QR on the winning columns (line 6; owner computes,
		// then the orthogonal panel is scattered, §V). The panel is
		// gathered from the tournament's CSC and factored in place, so
		// its upper triangle is R ---
		panel := ws.panel.Shape(mcur, keff)
		csc.ExtractColsDenseInto(panel, ws.lcp[:keff])
		panelNNZ := 0
		for _, v := range panel.Data {
			if v != 0 {
				panelNNZ++
			}
		}
		if c.Rank() == 0 {
			c.Compute(4*float64(keff)*float64(panelNNZ)+2*float64(mcur)*float64(keff)*float64(keff), "panelQR")
		}
		qk := ws.qr.QR(panel)
		c.Bcast(0, nil, 8*mcur*keff) // scatter of Q_k
		c.Elapse(0, "panelQR")       // ensure the kernel appears on every rank

		if iter == 1 {
			res.R11First = math.Abs(panel.At(0, 0))
			if thresholdOn {
				switch opts.Threshold {
				case FixedThreshold:
					mu = opts.Mu
				default:
					// eq (24): μ = τ|R⁽¹⁾(1,1)| / (u·√nnz(A)).
					mu = opts.Tol * res.R11First / (float64(opts.EstIters) * math.Sqrt(float64(nnzA)))
				}
				phi = opts.Phi
				if phi <= 0 {
					phi = opts.Tol * res.R11First
				}
				res.Mu, res.Phi = mu, phi
			}
		}
		// Numerical-rank guard on the panel diagonal.
		rankTol := 1e-13 * math.Max(res.R11First, math.Abs(panel.At(0, 0)))
		sig := 0
		for t := 0; t < keff; t++ {
			if math.Abs(panel.At(t, t)) > rankTol {
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
				// ILUT_CRTP rank deficiency: bound (20) violated.
				return res, fmt.Errorf("%w: panel diagonal collapsed at iteration %d (|R(k,k)| ≤ %.3g)", ErrBreakdown, iter, rankTol)
			}
			// LU_CRTP proceeds on a deficient block at its own risk:
			// truncate to the significant part and finish.
			keff = sig
			qk = qk.View(0, 0, mcur, keff)
			lastBlock = true
			res.HitNumRank = true
		}

		// --- Row QR_TP on Q_kᵀ (line 7; distributed tournament over
		// rows) ---
		ws.myRows = qrtp.AppendBlockCyclic(ws.myRows[:0], mcur, p, c.Rank(), keff)
		myRows := ws.myRows
		rowRes := ws.tour.SelectRowsDist(c, qk, myRows, keff)
		ws.lrp = ws.permutation(ws.lrp, rowRes.Winners, mcur)
		// Local row permutations of A⁽ⁱ⁾ after row QR_TP are one of the
		// expensive kernels when fill-in is large (Fig 5): each rank
		// permutes its share of the nonzeros. The column winners ride
		// along in the same pass: Ā = P_r·A⁽ⁱ⁾·P_c.
		c.Compute(4*float64(acur.NNZ())/float64(p), "rowPerm")
		acur.PermuteInto(&ws.perm, ws.lrp, ws.lcp)
		acur = &ws.perm
		pq := ws.q.Shape(mcur, keff)
		qk.PermuteRowsInto(pq, ws.lrp)
		qk = pq
		ws.applyTail(rowOrder, z, ws.lrp)

		// --- Partition Ā (line 8): Ā₁₂ is copied out for the Schur
		// update, Ā₁₁ for the solve; Ā₂₁ and Ā₂₂ are read from acur ---
		acur.ExtractBlockInto(&ws.a12, 0, keff, keff, ncur)

		// --- Triangular solve X = Ā₂₁Ā₁₁⁻¹ or the stable Q-based form
		// (line 10): Ā₂₁ scattered by rows, Ā₁₁ broadcast, result
		// allgathered (§V) ---
		c.Bcast(0, nil, 8*keff*keff) // broadcast of Ā₁₁
		lo, hi := dist.RowShare(mcur-keff, p, c.Rank())
		myX := ws.x.Shape(hi-lo, keff) // this rank's rows of Ā₂₁, solved in place
		var pivot *mat.Dense
		if opts.StableL {
			for i := lo; i < hi; i++ {
				copy(myX.Row(i-lo), qk.Row(keff+i))
			}
			pivot = qk.View(0, 0, keff, keff)
		} else {
			gatherLeft(myX, acur, keff+lo)
			pivot = ws.a11.Shape(keff, keff)
			gatherLeft(pivot, acur, 0)
		}
		if err := mat.SolveRightInPlace(myX, pivot); err != nil {
			// All ranks hit the same singular pivot deterministically.
			return res, fmt.Errorf("%w: iteration %d: %v", ErrBreakdown, iter, err)
		}
		c.Compute(2*float64(hi-lo)*float64(keff)*float64(keff), "triSolve")
		sparse.FromDenseInto(&ws.xLoc, myX, 0)
		xsp := ws.allgatherRows(c, &ws.xLoc, &ws.xAll)

		// --- Append L_k = [I; X] and U_k = [Ā₁₁ Ā₁₂] (line 11,
		// replicated bookkeeping) ---
		f.appendPanel(z, keff, rowOrder, colOrder, acur, xsp)

		// --- Schur complement (line 12): each rank forms its row share
		// of Ā₂₂ − XĀ₁₂ in one pass over acur, then an Allgather
		// distributes S (§V). The stacked S of the previous iteration,
		// read by this iteration's PermuteInto, holds the new one ---
		mine, flops := ws.schur.Schur(acur, keff, keff, xsp, &ws.a12, lo, hi)
		c.Compute(flops, "schur")
		s := ws.allgatherRows(c, mine, &ws.sAll)

		e := s.FrobNorm()
		res.ErrHistory = append(res.ErrHistory, e)
		res.FillHistory = append(res.FillHistory, s.Density())
		res.Iters = iter
		z += keff
		res.Rank = z

		// Line 13 / Alg 3 line 7: termination.
		if e < opts.Tol*normA {
			res.Converged = true
			res.ErrIndicator = e
			break
		}
		if lastBlock || z >= maxRank || s.Rows == 0 || s.Cols == 0 {
			res.ErrIndicator = e
			break
		}

		// Alg 3 lines 8–10: thresholding with control.
		if thresholdOn && mu > 0 {
			c.Compute(2*float64(s.NNZ())/float64(p), "threshold")
			// One read-only pass prices the drop; s is compacted in place
			// only once the control accepts it. The aggressive variant
			// splits s up front.
			var kept, dropped *sparse.CSR
			var dn2 float64
			var dnnz int
			if opts.Threshold == AggressiveThreshold {
				budget := phi*phi - t2
				if budget < 0 {
					budget = 0
				}
				kept, dropped = s.ThresholdSmallest(phi, budget)
				dn2, dnnz = dropped.FrobNorm2(), dropped.NNZ()
			} else {
				dn2, dnnz = s.DroppedBelow(mu)
			}
			if math.Sqrt(t2+dn2) >= phi {
				// Line 10: undo and disable thresholding.
				mu = 0
				res.Mu = 0
				res.ControlTriggered = true
			} else {
				t2 += dn2
				res.DroppedNorm2 = t2
				res.DroppedNorm1 += math.Sqrt(dn2)
				res.DroppedNNZ += dnnz
				var capture func(i, j int, v float64)
				if opts.CaptureDropped {
					// Ã = A + T: removing an entry v contributes −v to
					// the perturbation. Positions are recorded by
					// original ids; the tail permutations of later
					// iterations are resolved at assembly time.
					capture = func(i, j int, v float64) {
						tEnt = append(tEnt, entry{rowOrder[z+i], colOrder[z+j], -v})
					}
				}
				if kept == nil {
					// s is this rank's own Schur output.
					s.DropBelow(mu, capture)
				} else {
					if capture != nil {
						for r := 0; r < dropped.Rows; r++ {
							cols, vals := dropped.RowView(r)
							for kk, cc := range cols {
								capture(r, cc, vals[kk])
							}
						}
					}
					s = kept
				}
			}
		}
		acur = s
		res.ErrIndicator = e
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 && iter%opts.CheckpointEvery == 0 {
			opts.Checkpoint.Save(iter, c.Rank(), &luSnapshot{
				acur:             acur.Clone(),
				lt:               f.lt.Clone(),
				u:                f.u.Clone(),
				tEnt:             append([]entry(nil), tEnt...),
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
	rowPos := inverse(rowOrder)
	res.L, res.U = f.finish(rowPos, colOrder)
	if opts.CaptureDropped {
		colPos := inverse(colOrder)
		tb := sparse.NewBuilder(m, n)
		for _, e := range tEnt {
			tb.Add(rowPos[e.i], colPos[e.j], e.v)
		}
		res.Dropped = tb.ToCSR()
	}
	return res, nil
}

// fillReducingOrder returns the COLAMD + etree-postorder column
// permutation of a (§V). COLAMD is "a local, intrinsically sequential
// reordering heuristic", so rank 0 computes it and broadcasts it. The
// result is this rank's own copy: ranks mutate their permutation
// vectors in place, and message payloads share backing arrays.
func fillReducingOrder(c *dist.Comm, a *sparse.CSR) []int {
	var perm []int
	if c.Rank() == 0 {
		perm = ordering.FillReducingOrder(a)
		c.Compute(float64(8*a.NNZ()), "colamd")
	}
	return append([]int(nil), c.Bcast(0, perm, 8*a.Cols).([]int)...)
}

// workspace is one rank's grow-only LU iteration storage, owned like
// qrtp.Workspace: ranks are goroutines, so each owns one and they never
// share it. Beyond first growth of its buffers and of the factors, a
// warm iteration allocates only the tournament results, the k×k LU of
// the solve and, at p > 1, the collectives' part lists (ReorderEvery and
// aggressive thresholding also build fresh matrices).
//
// At p > 1 the rank's Schur share (schur's output) and its rows of X
// (xLoc) are Allgather payloads that other ranks read by reference; see
// allgatherRows for why rewriting them in the next iteration is safe.
type workspace struct {
	tour  qrtp.Workspace
	qr    mat.QRWorkspace
	csc   sparse.CSC // A⁽ⁱ⁾ for the column tournament
	perm  sparse.CSR // Ā = P_r·A⁽ⁱ⁾·P_c
	panel mat.Buffer // A⁽ⁱ⁾'s winning columns, then R over the reflectors
	q     mat.Buffer // P_r·Q_k
	x     mat.Buffer // this rank's rows of Ā₂₁ (or Q₂₁), then of X
	a11   mat.Buffer // Ā₁₁, the solve's pivot block
	a12   sparse.CSR // Ā₁₂, the Schur update's right factor
	xLoc  sparse.CSR // this rank's rows of X
	schur sparse.SchurWorkspace
	// The allgathered X and S at p > 1 (at p = 1 they are xLoc and
	// schur's output), and the received blocks.
	xAll, sAll sparse.CSR
	parts      []*sparse.CSR
	// This rank's tournament candidates, the column and row winner
	// permutations, and their scratch.
	myCols, myRows []int
	norms2         []float64 // column norms² for column discarding
	lcp, lrp       []int
	taken          []bool
	tail           []int
}

// reserve makes room for nnz entries in the two nnz-sized copies of
// A⁽ⁱ⁾, at least doubling their capacity when they must grow, as append
// does, so fill that grows a little every iteration does not reallocate
// them every iteration.
func (ws *workspace) reserve(nnz int) {
	if cap(ws.csc.Val) >= nnz {
		return
	}
	c := max(nnz, 2*cap(ws.csc.Val))
	ws.csc.RowIdx, ws.csc.Val = make([]int, 0, c), make([]float64, 0, c)
	ws.perm.ColIdx, ws.perm.Val = make([]int, 0, c), make([]float64, 0, c)
}

// permutation expands winners into a permutation of n ids in dst's
// storage.
func (ws *workspace) permutation(dst, winners []int, n int) []int {
	ws.taken = mat.Grow(ws.taken, n)
	return qrtp.PermutationInto(mat.Grow(dst, n), ws.taken, winners)
}

// applyTail permutes the tail (positions ≥ z) of order by the local
// permutation lperm: newOrder[z+j] = order[z+lperm[j]].
func (ws *workspace) applyTail(order []int, z int, lperm []int) {
	ws.tail = mat.Grow(ws.tail, len(lperm))
	for j, p := range lperm {
		ws.tail[j] = order[z+p]
	}
	copy(order[z:], ws.tail)
}

// gatherLeft overwrites dst with the first dst.Cols columns of rows
// r0, r0+1, … of a: this rank's rows of Ā₂₁.
func gatherLeft(dst *mat.Dense, a *sparse.CSR, r0 int) {
	dst.Zero()
	for r := 0; r < dst.Rows; r++ {
		cols, vals := a.RowView(r0 + r)
		row := dst.Row(r)
		for k, j := range cols {
			if j >= dst.Cols {
				break
			}
			row[j] = vals[k]
		}
	}
}

// allgatherRows assembles a row-distributed CSR from every rank's row
// block into dst. On one rank the block already is the whole matrix.
//
// The blocks travel by reference, so at p > 1 the two ownership rules of
// DESIGN.md §4c hold for X's and S's blocks. Each rank copies every
// block into dst before it enters another collective. A rank writes its
// X block again in the next iteration, after this iteration's Schur
// Allgather has returned, and its Schur block after the next column
// tournament has returned. Every rank sends into both collectives only
// after it copied the blocks out, and both end in a Bcast from rank 0,
// sent once rank 0 has heard from every rank (the Allgather's Gather and
// the tournament's winner tree), so no rank rewrites a block another
// rank may still read.
func (ws *workspace) allgatherRows(c *dist.Comm, mine, dst *sparse.CSR) *sparse.CSR {
	parts := c.Allgather(mine, 12*mine.NNZ())
	if len(parts) == 1 {
		return mine
	}
	ws.parts = ws.parts[:0]
	for _, part := range parts {
		ws.parts = append(ws.parts, part.(*sparse.CSR))
	}
	sparse.VStackCSRInto(dst, ws.parts...)
	clear(ws.parts)
	if dst.Rows == 0 {
		dst.Cols = mine.Cols
	}
	return dst
}

// luSnapshot is one rank's LU_CRTP/ILUT_CRTP loop state at an iteration
// boundary. The loop is fully replicated, so every rank snapshots the
// same values; all fields are deep copies.
type luSnapshot struct {
	acur               *sparse.CSR
	lt, u              *sparse.CSR // the factorStore's partial factors
	tEnt               []entry
	z                  int
	mu, phi, t2        float64
	rowOrder, colOrder []int
	r11First           float64
	resMu, resPhi      float64
	errHistory         []float64
	fillHistory        []float64
	rank               int
	errIndicator       float64
	discardedCols      int
	droppedNorm2       float64
	droppedNorm1       float64
	droppedNNZ         int
	controlTriggered   bool
	hitNumRank         bool
}

// factorStore collects L and U while the loop runs, each in the order
// its entries become final. L's columns are final when appended, so lt
// holds Lᵀ, one row per column of L, over original row ids. U's rows
// are final when appended, so u holds U over original column ids.
// finish maps both through the final permutations once.
type factorStore struct {
	lt, u sparse.CSR
}

func newFactorStore(m, n int) factorStore {
	return factorStore{
		lt: sparse.CSR{Cols: m, RowPtr: []int{0}},
		u:  sparse.CSR{Cols: n, RowPtr: []int{0}},
	}
}

// appendPanel appends L_k = [I; X] as columns z, …, z+keff−1 of L and
// U_k = [Ā₁₁ Ā₁₂], the first keff rows of abar, as rows z, …, z+keff−1
// of U. Exact zeros (an explicit zero stored in A) do not reach U; X
// holds none.
func (f *factorStore) appendPanel(z, keff int, rowOrder, colOrder []int, abar, x *sparse.CSR) {
	u := &f.u
	for t := 0; t < keff; t++ {
		cols, vals := abar.RowView(t)
		for k, j := range cols {
			if vals[k] != 0 {
				u.ColIdx = append(u.ColIdx, colOrder[z+j])
				u.Val = append(u.Val, vals[k])
			}
		}
		u.RowPtr = append(u.RowPtr, len(u.Val))
	}
	u.Rows += keff

	// Column z+t of L is the unit pivot at row rowOrder[z+t], then X's
	// column t. Count each column's entries, then scatter with ptr[t] as
	// column t's cursor, as CSR.ToCSCInto does.
	l := &f.lt
	base, nnz := len(l.Val), keff+x.NNZ()
	l.ColIdx = slices.Grow(l.ColIdx, nnz)[:base+nnz]
	l.Val = slices.Grow(l.Val, nnz)[:base+nnz]
	l.RowPtr = slices.Grow(l.RowPtr, keff)[:z+keff+1]
	ptr := l.RowPtr[z:]
	for t := 1; t <= keff; t++ {
		ptr[t] = 1
	}
	for _, t := range x.ColIdx {
		ptr[t+1]++
	}
	for t := 1; t <= keff; t++ {
		ptr[t] += ptr[t-1]
	}
	for t := 0; t < keff; t++ {
		l.ColIdx[ptr[t]], l.Val[ptr[t]] = rowOrder[z+t], 1
		ptr[t]++
	}
	for r := 0; r < x.Rows; r++ {
		i := rowOrder[z+keff+r]
		cols, vals := x.RowView(r)
		for k, t := range cols {
			l.ColIdx[ptr[t]], l.Val[ptr[t]] = i, vals[k]
			ptr[t]++
		}
	}
	copy(ptr[1:], ptr[:keff])
	ptr[0] = base
	l.Rows += keff
}

// finish returns L and U of P_r·A·P_c in storage of exactly their size:
// Lᵀ's row ids map through rowPos (the inverse of the row order) and one
// transpose sorts L's rows, and U's column ids map through the inverse
// of colOrder with each row sorted once. It consumes the store.
func (f *factorStore) finish(rowPos, colOrder []int) (l, u *sparse.CSR) {
	for k, i := range f.lt.ColIdx {
		f.lt.ColIdx[k] = rowPos[i]
	}
	return f.lt.Transpose(), f.u.PermuteCols(colOrder)
}

// inverse returns the inverse of the permutation order:
// inv[order[p]] = p.
func inverse(order []int) []int {
	inv := make([]int, len(order))
	for p, orig := range order {
		inv[orig] = p
	}
	return inv
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// MaxFill returns the maximum per-iteration density of the Schur
// complements, the fill statistic of Fig 1 (left, green lines).
func (r *Result) MaxFill() float64 {
	var m float64
	for _, f := range r.FillHistory {
		if f > m {
			m = f
		}
	}
	return m
}

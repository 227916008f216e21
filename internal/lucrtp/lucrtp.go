package lucrtp

import (
	"errors"
	"fmt"
	"math"
	"time"

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
	Tree      qrtp.Tree
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

	// CheckpointEvery > 0 makes FactorDist save each rank's loop state
	// into Checkpoint at the end of every CheckpointEvery-th iteration;
	// a complete snapshot already in Checkpoint resumes the run (the
	// COLAMD preamble is skipped — the restored Schur complement embeds
	// it) to a bit-identical result. Ignored by the sequential Factor.
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
	ErrHistory  []float64       // error indicator after each iteration
	FillHistory []float64       // density of A⁽ⁱ⁺¹⁾ (Fig 1 right)
	NNZHistory  []int           // nnz of A⁽ⁱ⁺¹⁾
	TimeHistory []time.Duration // cumulative wall time after each iteration

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

// entry buffers factor entries in original-row / global-column space
// until the final permutations are known.
type entry struct {
	i, j int
	v    float64
}

// Factor computes the fixed-precision truncated factorization of a with
// LU_CRTP (Options.Threshold == NoThreshold) or ILUT_CRTP.
func Factor(a *sparse.CSR, opts Options) (*Result, error) {
	opts.defaults()
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("lucrtp: empty matrix %d×%d", m, n)
	}
	k := opts.BlockSize
	normA := a.FrobNorm()
	nnzA := a.NNZ()
	maxRank := opts.MaxRank
	if maxRank <= 0 || maxRank > min(m, n) {
		maxRank = min(m, n)
	}

	res := &Result{NormA: normA, RowPerm: identity(m), ColPerm: identity(n)}
	// COLAMD preprocessing (§V): permute columns before iteration 1.
	acur := a
	if opts.Reorder != ReorderOff {
		perm := ordering.FillReducingOrder(a)
		res.ColPerm = perm
		acur = a.PermuteCols(perm)
	}
	rowOrder := res.RowPerm // alias; updated in place
	colOrder := res.ColPerm

	var lEnt, uEnt, tEnt []entry
	z := 0
	mu := 0.0
	phi := 0.0
	t2 := 0.0 // running Σ‖T̃⁽ʲ⁾‖²_F
	thresholdOn := opts.Threshold != NoThreshold
	start := time.Now()
	// One tournament workspace serves every column and row tournament of
	// the solve.
	var ws qrtp.Workspace

	record := func(e float64, s *sparse.CSR) {
		res.ErrHistory = append(res.ErrHistory, e)
		res.FillHistory = append(res.FillHistory, s.Density())
		res.NNZHistory = append(res.NNZHistory, s.NNZ())
		res.TimeHistory = append(res.TimeHistory, time.Since(start))
	}

	for iter := 1; ; iter++ {
		mcur, ncur := acur.Dims()
		keff := min(k, min(mcur, ncur), maxRank-z)
		if keff <= 0 {
			break
		}
		if opts.Reorder == ReorderEvery && iter > 1 {
			perm := ordering.FillReducingOrder(acur)
			acur = acur.PermuteCols(perm)
			applyTail(colOrder, z, perm)
		}
		// Line 5 of Alg 2: column tournament.
		csc := acur.ToCSC()
		var colRes qrtp.Result
		if opts.DiscardTol > 0 {
			// Column-discarding (ref [2]): keep only candidates whose
			// norm clears the discard threshold; always keep at least
			// keff candidates so a winner set exists.
			limit2 := opts.DiscardTol * opts.Tol * normA / math.Sqrt(float64(n))
			limit2 *= limit2
			norms2 := acur.ColNorms2()
			cand := make([]int, 0, ncur)
			for j, n2 := range norms2 {
				if n2 > limit2 {
					cand = append(cand, j)
				}
			}
			if len(cand) < keff {
				cand = cand[:0]
				for j := 0; j < ncur; j++ {
					cand = append(cand, j)
				}
			}
			res.DiscardedCols += ncur - len(cand)
			colRes = ws.SelectColumnsAmong(csc, cand, keff, opts.Tree)
		} else {
			colRes = ws.SelectColumns(csc, keff, opts.Tree)
		}
		lcp := qrtp.Permutation(colRes.Winners, ncur)
		acur = acur.PermuteCols(lcp)
		applyTail(colOrder, z, lcp)

		// Line 6: QR of the selected panel.
		panelCols := make([]int, keff)
		for t := range panelCols {
			panelCols[t] = t
		}
		panel := acur.ExtractColsDense(panelCols)
		qk, rPanel := mat.QR(panel)
		if iter == 1 {
			res.R11First = math.Abs(rPanel.At(0, 0))
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
			if opts.StopAtNumericalRank {
				keff = sig
				qk = qk.View(0, 0, mcur, keff).Clone()
				lastBlock = true
				res.HitNumRank = true
			} else if !thresholdOn {
				// LU_CRTP proceeds on a deficient block at its own risk;
				// truncate to the significant part and finish.
				keff = sig
				qk = qk.View(0, 0, mcur, keff).Clone()
				lastBlock = true
				res.HitNumRank = true
			} else {
				// ILUT_CRTP rank deficiency: bound (20) violated.
				return res, fmt.Errorf("%w: panel diagonal collapsed at iteration %d (|R(k,k)| ≤ %.3g)", ErrBreakdown, iter, rankTol)
			}
		}

		// Line 7: row tournament on Q_kᵀ.
		rowWinners := ws.SelectRowsDense(qk, keff)
		lrp := qrtp.Permutation(rowWinners, mcur)
		acur = acur.PermuteRows(lrp)
		qk = qk.PermuteRows(lrp)
		applyTail(rowOrder, z, lrp)

		// Line 8: partition Ā.
		a11 := acur.ExtractBlock(0, keff, 0, keff).ToDense()
		a12 := acur.ExtractBlock(0, keff, keff, ncur)
		a21 := acur.ExtractBlock(keff, mcur, 0, keff)
		a22 := acur.ExtractBlock(keff, mcur, keff, ncur)

		// Line 10: X = Ā₂₁Ā₁₁⁻¹ (or the stable Q-based form).
		var x *mat.Dense
		var err error
		if opts.StableL {
			q11 := qk.View(0, 0, keff, keff).Clone()
			q21 := qk.View(keff, 0, mcur-keff, keff).Clone()
			x, err = mat.SolveRight(q21, q11)
		} else {
			x, err = mat.SolveRight(a21.ToDense(), a11)
		}
		if err != nil {
			return res, fmt.Errorf("%w: iteration %d: %v", ErrBreakdown, iter, err)
		}
		xsp := sparse.FromDense(x, 0)

		// Line 11: append L_k = [I; X] and U_k = [Ā₁₁ Ā₁₂].
		for tIdx := 0; tIdx < keff; tIdx++ {
			lEnt = append(lEnt, entry{rowOrder[z+tIdx], z + tIdx, 1})
			for c := 0; c < keff; c++ {
				if v := a11.At(tIdx, c); v != 0 {
					uEnt = append(uEnt, entry{z + tIdx, colOrder[z+c], v})
				}
			}
			cols, vals := a12.RowView(tIdx)
			for kk, c := range cols {
				uEnt = append(uEnt, entry{z + tIdx, colOrder[z+keff+c], vals[kk]})
			}
		}
		for r := 0; r < xsp.Rows; r++ {
			cols, vals := xsp.RowView(r)
			for kk, c := range cols {
				lEnt = append(lEnt, entry{rowOrder[z+keff+r], z + c, vals[kk]})
			}
		}

		// Line 12: Schur complement.
		s := sparse.Add(1, a22, -1, sparse.SpGEMM(xsp, a12))
		e := s.FrobNorm()
		record(e, s)
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
				// Line 10: undo and disable thresholding.
				mu = 0
				res.Mu = 0
				res.ControlTriggered = true
			} else {
				t2 += dn2
				res.DroppedNorm2 = t2
				res.DroppedNorm1 += math.Sqrt(dn2)
				res.DroppedNNZ += dropped.NNZ()
				if opts.CaptureDropped {
					// Ã = A + T: removing an entry v contributes −v to
					// the perturbation. Positions are recorded by
					// original ids; the tail permutations of later
					// iterations are resolved at assembly time.
					for r := 0; r < dropped.Rows; r++ {
						cols, vals := dropped.RowView(r)
						for kk, cc := range cols {
							tEnt = append(tEnt, entry{rowOrder[z+r], colOrder[z+cc], -vals[kk]})
						}
					}
				}
				s = kept
			}
		}
		acur = s
		res.ErrIndicator = e
	}
	if len(res.ErrHistory) > 0 {
		res.ErrIndicator = res.ErrHistory[len(res.ErrHistory)-1]
	}
	res.L, res.U = assembleFactors(lEnt, uEnt, rowOrder, colOrder, m, n, res.Rank)
	if opts.CaptureDropped {
		rowPos := make([]int, m)
		for p, orig := range rowOrder {
			rowPos[orig] = p
		}
		colPos := make([]int, n)
		for p, orig := range colOrder {
			colPos[orig] = p
		}
		tb := sparse.NewBuilder(m, n)
		for _, e := range tEnt {
			tb.Add(rowPos[e.i], colPos[e.j], e.v)
		}
		res.Dropped = tb.ToCSR()
	}
	return res, nil
}

// ThresholdedError evaluates eq (10) exactly for a run with
// CaptureDropped: ‖(P_r·A·P_c + T) − L̃·Ũ‖_F, which must equal the error
// estimator ‖Ã⁽ⁱ⁺¹⁾‖_F up to roundoff — the ILUT factorization is an
// exact LU_CRTP of the perturbed matrix Ã.
func ThresholdedError(a *sparse.CSR, res *Result) float64 {
	if res.Dropped == nil {
		panic("lucrtp: ThresholdedError requires Options.CaptureDropped")
	}
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	tilde := sparse.Add(1, perm, 1, res.Dropped)
	lu := sparse.SpGEMM(res.L, res.U)
	return sparse.Add(1, tilde, -1, lu).FrobNorm()
}

// assembleFactors maps the buffered entries from original coordinates to
// the final permuted positions and builds CSR factors.
func assembleFactors(lEnt, uEnt []entry, rowOrder, colOrder []int, m, n, rank int) (l, u *sparse.CSR) {
	rowPos := make([]int, m)
	for p, orig := range rowOrder {
		rowPos[orig] = p
	}
	colPos := make([]int, n)
	for p, orig := range colOrder {
		colPos[orig] = p
	}
	lb := sparse.NewBuilder(m, rank)
	for _, e := range lEnt {
		lb.Add(rowPos[e.i], e.j, e.v)
	}
	ub := sparse.NewBuilder(rank, n)
	for _, e := range uEnt {
		ub.Add(e.i, colPos[e.j], e.v)
	}
	return lb.ToCSR(), ub.ToCSR()
}

// applyTail permutes the tail (positions ≥ z) of order by the local
// permutation lperm: newOrder[z+j] = order[z+lperm[j]].
func applyTail(order []int, z int, lperm []int) {
	tail := make([]int, len(lperm))
	for j, p := range lperm {
		tail[j] = order[z+p]
	}
	copy(order[z:], tail)
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TrueError computes ‖P_r·A·P_c − L·U‖_F exactly (eq 5 / eq 25), the
// quantity the error indicator estimates.
func TrueError(a *sparse.CSR, res *Result) float64 {
	perm := a.PermuteRows(res.RowPerm).PermuteCols(res.ColPerm)
	lu := sparse.SpGEMM(res.L, res.U)
	return sparse.Add(1, perm, -1, lu).FrobNorm()
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

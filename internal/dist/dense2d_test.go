package dist

import (
	"testing"

	"sparselr/internal/mat"
)

func TestRowShare(t *testing.T) {
	for _, tc := range []struct{ rows, p int }{{10, 3}, {7, 7}, {5, 8}, {0, 4}} {
		total := 0
		prevHi := 0
		for r := 0; r < tc.p; r++ {
			lo, hi := RowShare(tc.rows, tc.p, r)
			if lo != prevHi {
				t.Fatalf("rows=%d p=%d: gap at rank %d", tc.rows, tc.p, r)
			}
			prevHi = hi
			total += hi - lo
		}
		if total != tc.rows {
			t.Fatalf("rows=%d p=%d: covered %d", tc.rows, tc.p, total)
		}
	}
}

// SumReduce and AllgatherRowsInto reuse the same rank-owned buffers on
// every call, as the solvers do, and each call must still see exactly
// its own payloads; -race checks the ownership rule behind the reuse.
func TestSumReduceAndAllgatherRowsReuseBuffers(t *testing.T) {
	const m, n, w, calls = 11, 7, 3, 20
	for _, p := range []int{1, 3, 4} {
		mustRun(t, p, cfg(), func(c *Comm) {
			lo, hi := RowShare(m, p, c.Rank())
			var part, sum, loc, full mat.Buffer
			for call := 0; call < calls; call++ {
				y := loc.Shape(hi-lo, w)
				for i := 0; i < y.Rows; i++ {
					for j := range y.Row(i) {
						y.Row(i)[j] = float64(call*m*w + (lo+i)*w + j)
					}
				}
				all := AllgatherRowsInto(c, full.Shape(m, w), y)
				for i, v := range all.Data {
					if v != float64(call*m*w+i) {
						t.Errorf("p=%d call %d: row block entry %d = %v", p, call, i, v)
						return
					}
				}
				// SumReduce's Gather/Bcast is also the collective that
				// separates the allgather from the next write of y.
				x := part.Shape(n, w)
				for i := range x.Data {
					x.Data[i] = float64((c.Rank()+1)*(call+1)) + float64(i)
				}
				got := SumReduce(c, x, &sum, "GEMM")
				for i, v := range got.Data {
					want := float64(p*(p+1)/2*(call+1)) + float64(p*i)
					if v != want {
						t.Errorf("p=%d call %d: sum[%d] = %v, want %v", p, call, i, v, want)
						return
					}
				}
				got.Zero() // the total is the caller's own to overwrite
			}
		})
	}
}

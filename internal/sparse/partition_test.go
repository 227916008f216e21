package sparse

import (
	"math/rand"
	"testing"
)

// checkBounds asserts the structural invariants every chunksByPrefixInto
// result must satisfy: full coverage, monotone bounds, fixed endpoints.
func checkBounds(t *testing.T, bounds []int, rows int) {
	t.Helper()
	if bounds[0] != 0 || bounds[len(bounds)-1] != rows {
		t.Fatalf("bounds endpoints %d..%d, want 0..%d", bounds[0], bounds[len(bounds)-1], rows)
	}
	for c := 1; c < len(bounds); c++ {
		if bounds[c] < bounds[c-1] {
			t.Fatalf("bounds not monotone at %d: %v", c, bounds)
		}
	}
}

func TestChunksByPrefixBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(500)
		nchunks := 1 + rng.Intn(16)
		prefix := make([]int, rows+1)
		for i := 1; i <= rows; i++ {
			prefix[i] = prefix[i-1] + rng.Intn(20)
		}
		bounds := chunksByPrefixInto(nil, prefix, nchunks)
		checkBounds(t, bounds, rows)
		total := prefix[rows]
		if total == 0 {
			continue
		}
		// No chunk may exceed the ideal share by more than the largest
		// single row (row granularity is the only imbalance allowed).
		maxRow := 0
		for i := 1; i <= rows; i++ {
			if w := prefix[i] - prefix[i-1]; w > maxRow {
				maxRow = w
			}
		}
		ideal := total/(len(bounds)-1) + 1
		for c := 0; c+1 < len(bounds); c++ {
			w := prefix[bounds[c+1]] - prefix[bounds[c]]
			if w > ideal+maxRow {
				t.Fatalf("trial %d: chunk %d weight %d exceeds ideal %d + maxRow %d",
					trial, c, w, ideal, maxRow)
			}
		}
	}
}

func TestChunksByPrefixEdgeCases(t *testing.T) {
	// Zero weight everywhere: uniform fallback still covers all rows.
	zero := make([]int, 101)
	bounds := chunksByPrefixInto(nil, zero, 4)
	checkBounds(t, bounds, 100)
	for c := 0; c+1 < len(bounds); c++ {
		if w := bounds[c+1] - bounds[c]; w < 20 || w > 30 {
			t.Fatalf("uniform fallback unbalanced: %v", bounds)
		}
	}

	// All weight in the last row: earlier chunks collapse, coverage holds.
	last := make([]int, 101)
	last[100] = 1000
	checkBounds(t, chunksByPrefixInto(nil, last, 4), 100)

	// More chunks than rows: clamps to one chunk per row.
	small := []int{0, 3, 7}
	b := chunksByPrefixInto(nil, small, 8)
	checkBounds(t, b, 2)
	if len(b) != 3 {
		t.Fatalf("want 2 chunks for 2 rows, got bounds %v", b)
	}

	// Single row, nchunks < 1 clamp.
	checkBounds(t, chunksByPrefixInto(nil, []int{0, 5}, 0), 1)
}

func TestRowChunksByNNZCoversAllRows(t *testing.T) {
	a := randCSR(300, 200, 0.03, 5)
	for _, nchunks := range []int{1, 2, 3, 7, 16, 1000} {
		bounds := chunksByPrefixInto(nil, a.RowPtr, nchunks)
		checkBounds(t, bounds, a.Rows)
	}
}

func TestParallelRowsByNNZVisitsEachRowOnce(t *testing.T) {
	a := randCSR(500, 100, 0.02, 11)
	for _, procs := range []int{1, 2, 8} {
		withMaxProcs(procs, func() {
			seen := make([]int32, a.Rows)
			a.ParallelRowsByNNZ(func(lo, hi int) {
				for i := lo; i < hi; i++ {
					// Ranges are disjoint, so unsynchronized writes are safe;
					// the race detector would flag overlap.
					seen[i]++
				}
			})
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("procs=%d: row %d visited %d times", procs, i, n)
				}
			}
		})
	}
}

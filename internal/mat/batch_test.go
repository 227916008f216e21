package mat

import "testing"

func TestBatchRunCoversAllIndices(t *testing.T) {
	const n = 100
	hit := make([]int32, n)
	BatchRun(n, func(i int) { hit[i]++ })
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
	BatchRun(0, func(int) { t.Fatal("fn called for empty batch") })
}

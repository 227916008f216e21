//go:build !race

package core

import "testing"

// TestFactorEntriesAllocs: LU's four-factor table fits the
// [MaxFactors]Factor stack buffer, so its accounting allocates nothing.
func TestFactorEntriesAllocs(t *testing.T) {
	ap, err := Approximate(testMatrix(3), Options{Method: LUCRTP, BlockSize: 8, Tol: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ap.factorEntries() }); n != 0 {
		t.Errorf("factorEntries on LU_CRTP: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ap.FactorBytes() }); n != 0 {
		t.Errorf("FactorBytes on LU_CRTP: %v allocs per call, want 0", n)
	}
}

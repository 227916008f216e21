package ordering

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sparselr/internal/gen"
	"sparselr/internal/sparse"
)

// goldenMatrices is the ordering drift corpus: the Table I analogs at
// small and medium scale, their transposes, and the first 40 matrices of
// the SJSU-style singular suite (64 matrices).
func goldenMatrices() []*sparse.CSR {
	var out []*sparse.CSR
	for _, s := range []gen.Scale{gen.Small, gen.Medium} {
		for _, pm := range gen.TableI(s) {
			out = append(out, pm.A, pm.A.Transpose())
		}
	}
	for _, sm := range gen.SJSUSuite(40, 7) {
		out = append(out, sm.A)
	}
	return out
}

// permHash FNV-64a-hashes every permutation order(a) over the corpus, each
// prefixed by its length.
func permHash(corpus []*sparse.CSR, order func(*sparse.CSR) []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range corpus {
		perm := order(a)
		binary.LittleEndian.PutUint64(b[:], uint64(len(perm)))
		h.Write(b[:])
		for _, p := range perm {
			binary.LittleEndian.PutUint64(b[:], uint64(p))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestOrderingGolden pins COLAMD and FillReducingOrder bit for bit: the
// hashes were recorded with the container/heap implementation, so any
// change to the permutations (and hence to every LU_CRTP factor) fails.
func TestOrderingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale corpus")
	}
	corpus := goldenMatrices()
	if len(corpus) != 64 {
		t.Fatalf("corpus has %d matrices, want 64", len(corpus))
	}
	for _, tc := range []struct {
		name  string
		order func(*sparse.CSR) []int
		want  uint64
	}{
		{"COLAMD", COLAMD, 0x623c8b7a31901ceb},
		{"FillReducingOrder", FillReducingOrder, 0x800f32724480a133},
	} {
		if got := permHash(corpus, tc.order); got != tc.want {
			t.Errorf("%s permutation hash = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestOrderingAllocs bounds COLAMD's heap allocations per call: its row
// and column lists live in arenas and its heap is typed, so the count is
// a small constant rather than growing with the eliminations.
func TestOrderingAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale matrices")
	}
	cases := []struct {
		name string
		a    *sparse.CSR
	}{{"Circuit(1500,6,5)", gen.Circuit(1500, 6, 5)}}
	for _, label := range []string{"M1", "M2", "M3"} {
		pm, err := gen.ByLabel(label, gen.Medium)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			a    *sparse.CSR
		}{"medium " + label, pm.A})
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(3, func() { COLAMD(tc.a) }); got > 64 {
			t.Errorf("COLAMD on %s: %v allocs/op, want ≤ 64", tc.name, got)
		}
	}
}

package ordering

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sparselr/internal/sparse"
)

func randCSR(r, c int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.ToCSR()
}

// arrowMatrix is diagonal plus one dense column, so AᵀA is an arrowhead:
// the classic example where eliminating the dense column first causes
// catastrophic fill and minimum degree must order it last.
func arrowMatrix(n int, denseFirst bool) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	dense := 0
	if !denseFirst {
		dense = n - 1
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i != dense {
			b.Add(i, dense, 1)
		}
	}
	return b.ToCSR()
}

func isPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func TestCOLAMDIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(10, 8, 0.3, seed)
		return isPermutation(COLAMD(a), 8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCOLAMDOrdersDenseColumnLast(t *testing.T) {
	n := 20
	a := arrowMatrix(n, true)
	perm := COLAMD(a)
	// The dense column (index 0) must be eliminated at (or essentially
	// at) the end: eliminating it early would merge every row at once.
	if pos := indexOf(perm, 0); pos < n-2 {
		t.Fatalf("dense column ordered at position %d, want ≥ %d", pos, n-2)
	}
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestCOLAMDEmptyColumns(t *testing.T) {
	b := sparse.NewBuilder(4, 5)
	b.Add(0, 1, 1)
	b.Add(1, 3, 1)
	a := b.ToCSR()
	perm := COLAMD(a)
	if !isPermutation(perm, 5) {
		t.Fatal("perm invalid with empty columns")
	}
	// An empty column has degree 0, so it is eliminated first: a dense
	// 3×3 block plus an empty column 3 orders [3 0 1 2].
	b = sparse.NewBuilder(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b.Add(i, j, 1)
		}
	}
	want := []int{3, 0, 1, 2}
	if got := COLAMD(b.ToCSR()); !slices.Equal(got, want) {
		t.Fatalf("COLAMD = %v, want %v (empty columns first)", got, want)
	}
}

func TestCOLAMDDeterministic(t *testing.T) {
	a := randCSR(15, 12, 0.25, 55)
	p1 := COLAMD(a)
	p2 := COLAMD(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("COLAMD must be deterministic")
		}
	}
}

func TestColEtreeChain(t *testing.T) {
	// Bidiagonal matrix: AᵀA is tridiagonal, so the etree is a chain
	// 0 → 1 → 2 → ... → n-1.
	n := 6
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
		if i+1 < n {
			b.Add(i, i+1, 1)
		}
	}
	parent := ColEtree(b.ToCSR())
	for j := 0; j < n-1; j++ {
		if parent[j] != j+1 {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], j+1)
		}
	}
	if parent[n-1] != -1 {
		t.Fatal("last column must be a root")
	}
}

func TestColEtreeDiagonal(t *testing.T) {
	// Diagonal matrix: no column interacts, every node is a root.
	n := 5
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	parent := ColEtree(b.ToCSR())
	for j, p := range parent {
		if p != -1 {
			t.Fatalf("parent[%d] = %d, want -1", j, p)
		}
	}
}

func TestColEtreeMatchesGramEtree(t *testing.T) {
	// Reference: the etree of AᵀA computed the slow way. parent[j] is the
	// smallest k > j adjacent to j in the filled graph of AᵀA; verify via
	// symbolic Cholesky fill on the Gram pattern.
	a := randCSR(12, 8, 0.3, 56)
	got := ColEtree(a)
	want := etreeOfGram(a)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("etree mismatch at %d: got %d want %d", j, got[j], want[j])
		}
	}
}

// etreeOfGram computes the elimination tree of AᵀA by the textbook
// definition using dense pattern arithmetic (test-only reference).
func etreeOfGram(a *sparse.CSR) []int {
	_, n := a.Dims()
	d := a.ToDense()
	// Gram pattern.
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			var dot bool
			for i := 0; i < d.Rows; i++ {
				if d.At(i, j) != 0 && d.At(i, k) != 0 {
					dot = true
					break
				}
			}
			adj[j][k] = dot
			adj[k][j] = dot
		}
	}
	parent := make([]int, n)
	// Standard etree via ancestor compression over the lower-triangular
	// pattern of the (unfilled) Gram matrix.
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for i := 0; i < k; i++ {
			if !adj[i][k] {
				continue
			}
			j := i
			for j != -1 && j < k {
				jn := ancestor[j]
				ancestor[j] = k
				if jn == -1 {
					parent[j] = k
				}
				j = jn
			}
		}
	}
	return parent
}

func TestPostOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(10, 7, 0.3, seed)
		post := PostOrder(ColEtree(a))
		return isPermutation(post, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostOrderChildrenBeforeParents(t *testing.T) {
	f := func(seed int64) bool {
		a := randCSR(12, 9, 0.3, seed)
		parent := ColEtree(a)
		post := PostOrder(parent)
		pos := make([]int, len(post))
		for p, node := range post {
			pos[node] = p
		}
		for j, p := range parent {
			if p != -1 && pos[j] > pos[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillReducingOrderIsPermutation(t *testing.T) {
	a := randCSR(20, 15, 0.2, 57)
	if !isPermutation(FillReducingOrder(a), 15) {
		t.Fatal("FillReducingOrder must return a permutation")
	}
}

func TestFillReducingOrderReducesArrowFill(t *testing.T) {
	// Cholesky-style fill count on AᵀA under natural vs reduced order.
	n := 24
	a := arrowMatrix(n, true)
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	fillNat := gramFill(a, natural)
	fillOrd := gramFill(a, FillReducingOrder(a))
	if fillOrd >= fillNat {
		t.Fatalf("ordered fill %d should beat natural fill %d on the arrow matrix", fillOrd, fillNat)
	}
}

// gramFill counts fill-in of a symbolic Cholesky of (APc)ᵀ(APc).
func gramFill(a *sparse.CSR, perm []int) int {
	ap := a.PermuteCols(perm).ToDense()
	n := ap.Cols
	g := make([][]bool, n)
	for i := range g {
		g[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			for i := 0; i < ap.Rows; i++ {
				if ap.At(i, j) != 0 && ap.At(i, k) != 0 {
					g[j][k] = true
					g[k][j] = true
					break
				}
			}
		}
	}
	fill := 0
	for p := 0; p < n; p++ {
		// Eliminate node p: connect all later neighbours pairwise.
		var nb []int
		for q := p + 1; q < n; q++ {
			if g[p][q] {
				nb = append(nb, q)
			}
		}
		for x := 0; x < len(nb); x++ {
			for y := x + 1; y < len(nb); y++ {
				if !g[nb[x]][nb[y]] {
					g[nb[x]][nb[y]] = true
					g[nb[y]][nb[x]] = true
					fill++
				}
			}
		}
	}
	return fill
}

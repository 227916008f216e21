package ordering

import "sparselr/internal/sparse"

// COLAMD returns a fill-reducing column permutation of a. The result perm
// satisfies: column j of the reordered matrix is column perm[j] of a.
// Columns are eliminated in ascending (approximate degree, index) order,
// so empty columns, whose degree is 0, come first, in index order.
//
// All working storage is sized from a up front: row patterns and merged
// super-rows share one arena, the per-column row lists another, and the
// degree queue is an indexed heap over the columns, so a call allocates a
// fixed handful of slices however many eliminations it makes.
func COLAMD(a *sparse.CSR) []int {
	m, n := a.Dims()
	nnz := a.NNZ()
	// Row r's pattern is rowArena[rowStart[r] : rowStart[r]+rowLen[r]].
	// Rows [0, m) are a's rows; each elimination that merges rows adds
	// one super-row, so there are at most m+n rows. A live row never
	// holds an eliminated column and a super-row is shorter than the rows
	// it replaces, so the live patterns never total more than nnz: twice
	// that leaves room to append super-rows between compactions.
	rowStart := make([]int, m+n)
	rowLen := make([]int, m+n)
	alive := make([]bool, m+n)
	rowArena := make([]int32, 2*nnz)
	for k, j := range a.ColIdx {
		rowArena[k] = int32(j)
	}
	for i := 0; i < m; i++ {
		rowStart[i] = a.RowPtr[i]
		rowLen[i] = a.RowPtr[i+1] - a.RowPtr[i]
		alive[i] = rowLen[i] > 0
	}
	nrows, used := m, nnz
	// Column j's rows (by id, possibly dead) are
	// colRows[colStart[j] : colStart[j]+colLen[j]], in ascending id
	// order. Dead ids are dropped when the column's degree is
	// refreshed. Each super-row registered under j replaces at least one
	// row listed there, so a list never outgrows the column's count in a.
	colStart := make([]int, n+1)
	colLen := make([]int, n)
	for _, j := range a.ColIdx {
		colLen[j]++
	}
	for j := 0; j < n; j++ {
		colStart[j+1] = colStart[j] + colLen[j]
		colLen[j] = 0
	}
	colRows := make([]int32, nnz)
	for i := 0; i < m; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			colRows[colStart[j]+colLen[j]] = int32(i)
			colLen[j]++
		}
	}
	// refresh drops column j's dead rows and returns its approximate
	// external degree Σ(len(row)−1) over the live ones.
	refresh := func(j int32) int {
		d := 0
		list := colRows[colStart[j] : colStart[j]+colLen[j]]
		live := list[:0]
		for _, r := range list {
			if alive[r] {
				live = append(live, r)
				d += rowLen[r] - 1
			}
		}
		colLen[j] = len(live)
		return d
	}
	h := degreeHeap{deg: make([]int, n), heap: make([]int32, n), pos: make([]int32, n)}
	for j := 0; j < n; j++ {
		h.deg[j] = refresh(int32(j))
		h.heap[j] = int32(j)
		h.pos[j] = int32(j)
	}
	h.init()
	perm := make([]int, 0, n)
	touched := make([]bool, n)
	merged := make([]int32, 0, n)
	for len(perm) < n {
		j := h.pop()
		perm = append(perm, int(j))
		// Merge all live rows containing j into one super-row.
		merged = merged[:0]
		for _, r := range colRows[colStart[j] : colStart[j]+colLen[j]] {
			if !alive[r] {
				continue
			}
			alive[r] = false
			for _, c := range rowArena[rowStart[r] : rowStart[r]+rowLen[r]] {
				if c != j && !touched[c] {
					touched[c] = true
					merged = append(merged, c)
				}
			}
		}
		colLen[j] = 0
		if len(merged) == 0 {
			continue
		}
		if used+len(merged) > len(rowArena) {
			used = compactRows(rowArena, rowStart[:nrows], rowLen, alive)
		}
		rid := int32(nrows)
		nrows++
		rowStart[rid], rowLen[rid], alive[rid] = used, len(merged), true
		used += copy(rowArena[used:], merged)
		// Register the super-row under each of its columns and refresh
		// their degrees. The rows merged into it were listed there, so
		// the append after refresh stays within the column's slots.
		for _, c := range merged {
			touched[c] = false
			d := refresh(c) + len(merged) - 1
			colRows[colStart[c]+colLen[c]] = rid
			colLen[c]++
			h.update(c, d)
		}
	}
	return perm
}

// compactRows moves the live row patterns to the front of arena in id
// order, which is also their arena order, and returns the used length.
func compactRows(arena []int32, start, length []int, alive []bool) int {
	w := 0
	for r, s := range start {
		if alive[r] {
			start[r] = w
			w += copy(arena[w:], arena[s:s+length[r]])
		}
	}
	return w
}

// degreeHeap is an indexed binary min-heap of columns ordered by
// (deg, column): each live column holds one entry, updated in place when
// its degree changes.
type degreeHeap struct {
	deg  []int   // deg[c]: current approximate degree of column c
	heap []int32 // columns in heap order
	pos  []int32 // pos[c]: index of column c in heap
}

func (h *degreeHeap) less(a, b int32) bool {
	if h.deg[a] != h.deg[b] {
		return h.deg[a] < h.deg[b]
	}
	return a < b // deterministic tie-break
}

func (h *degreeHeap) swap(i, k int) {
	h.heap[i], h.heap[k] = h.heap[k], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[k]] = int32(k)
}

func (h *degreeHeap) init() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *degreeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *degreeHeap) down(i int) {
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.less(h.heap[r], h.heap[l]) {
			small = r
		}
		if !h.less(h.heap[small], h.heap[i]) {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// pop removes and returns the column of least (deg, column).
func (h *degreeHeap) pop() int32 {
	last := len(h.heap) - 1
	h.swap(0, last)
	c := h.heap[last]
	h.heap = h.heap[:last]
	h.down(0)
	return c
}

// update sets column c's degree to d and restores the heap order.
func (h *degreeHeap) update(c int32, d int) {
	old := h.deg[c]
	h.deg[c] = d
	if d < old {
		h.up(int(h.pos[c]))
	} else {
		h.down(int(h.pos[c]))
	}
}

// ColEtree computes the column elimination tree of a, i.e. the
// elimination tree of AᵀA, without forming the product (CSparse's
// cs_etree with the ata option). parent[j] = -1 marks a root.
func ColEtree(a *sparse.CSR) []int {
	m, n := a.Dims()
	parent := make([]int, n)
	ancestor := make([]int, n)
	prev := make([]int, m)
	for i := range prev {
		prev[i] = -1
	}
	// Column access pattern: walk the CSC form.
	csc := a.ToCSC()
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		rows, _ := csc.ColView(k)
		for _, r := range rows {
			i := prev[r]
			for i != -1 && i < k {
				inext := ancestor[i]
				ancestor[i] = k
				if inext == -1 {
					parent[i] = k
				}
				i = inext
			}
			prev[r] = k
		}
	}
	return parent
}

// PostOrder returns a postorder traversal of the forest described by
// parent (as produced by ColEtree). The result maps new position → node.
func PostOrder(parent []int) []int {
	n := len(parent)
	// Build child lists (reversed insertion keeps ascending child order
	// when popped from the stack).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for j := n - 1; j >= 0; j-- {
		p := parent[j]
		if p == -1 {
			continue
		}
		next[j] = head[p]
		head[p] = j
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, n)
	for root := 0; root < n; root++ {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, root)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			c := head[j]
			if c == -1 {
				post = append(post, j)
				stack = stack[:len(stack)-1]
			} else {
				head[j] = next[c]
				stack = append(stack, c)
			}
		}
	}
	return post
}

// FillReducingOrder composes COLAMD with a postorder of the column
// elimination tree of the COLAMD-permuted matrix, returning a single
// column permutation of a (perm[j] = original column of new column j).
func FillReducingOrder(a *sparse.CSR) []int {
	camd := COLAMD(a)
	ap := a.PermuteCols(camd)
	post := PostOrder(ColEtree(ap))
	perm := make([]int, len(camd))
	for newj, mid := range post {
		perm[newj] = camd[mid]
	}
	return perm
}

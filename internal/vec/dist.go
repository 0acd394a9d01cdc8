package vec

import (
	"sync"
	"sync/atomic"
)

// matrixBuilds counts DistanceMatrix constructions process-wide; tests
// use it to assert memoization ("exactly one matrix per aggregation").
var matrixBuilds atomic.Uint64

// matrixRowUpdates counts incremental row recomputations process-wide;
// tests use it to assert that the cross-round cache actually took the
// incremental path instead of silently rebuilding.
var matrixRowUpdates atomic.Uint64

// MatrixBuildCount returns the number of distance matrices built since
// process start. It is test instrumentation: take a snapshot, run the
// code under test, and diff.
func MatrixBuildCount() uint64 { return matrixBuilds.Load() }

// MatrixRowUpdateCount returns the number of incremental row
// recomputations (UpdateRow / UpdateRows rows) since process start —
// the same snapshot-and-diff instrumentation as MatrixBuildCount.
func MatrixRowUpdateCount() uint64 { return matrixRowUpdates.Load() }

// DistanceMatrix holds the full symmetric matrix of pairwise squared
// Euclidean distances between n vectors, stored densely (n×n, row
// major). The diagonal is zero. It is the O(n²·d) object at the heart
// of Krum (Lemma 4.1): building it dominates the aggregation cost.
//
// Distances are assembled through the Gram trick
// ‖a−b‖² = ‖a‖² + ‖b‖² − 2·⟨a,b⟩ over a register-blocked inner-product
// kernel (see gram.go), with a clamp to zero against the small negative
// values floating-point cancellation can produce. The matrix owns a
// contiguous copy of the input vectors and their squared norms, which
// is what makes the incremental UpdateRow path self-contained: callers
// may mutate or recycle their proposal buffers between rounds without
// corrupting the cache.
type DistanceMatrix struct {
	n    int
	dim  int
	gram bool      // Gram-trick kernel (large dim) vs exact subtract-square
	vecs []float64 // n*dim vector copies, row major
	nrm  []float64 // n squared norms ‖v_i‖²
	d    []float64 // n*n squared distances, row major
}

// naiveDimMax is the dimension at or below which NewDistanceMatrix
// keeps the subtract-square kernel: with only a handful of
// coordinates the O(n²·d) bill is trivial either way, and the direct
// formula is immune to the cancellation noise that can flip exact
// decimal ties (Krum's index tie-break is observable behavior). Above
// it, the blocked Gram kernel's throughput wins and the property
// suite bounds its error relative to the input magnitudes.
const naiveDimMax = 16

// NewDistanceMatrix computes all pairwise squared distances between the
// given vectors with the blocked Gram-trick kernel (dimensions above
// naiveDimMax; tiny dimensions keep the exact subtract-square loop).
// Cost: Θ(n·d) for the norms plus n·(n−1)/2 inner products of d
// multiply-adds each, i.e. Θ(n²·d) — the same asymptotic bill as the
// naive kernel, paid at a much higher arithmetic throughput. Above
// gramBlock dimensions the build runs depth-first (buildBlocked) so
// every vector's k-slice is consumed by all pairs while cache-resident;
// the result is bit-identical to the pair-at-a-time walk either way
// (the canonical blocked order of gram.go does not depend on the loop
// nest).
func NewDistanceMatrix(vectors [][]float64) *DistanceMatrix {
	m := newShell(vectors)
	if m.gram && m.dim > gramBlock {
		m.buildBlocked()
		return m
	}
	for u := 0; u < m.n; u += 2 {
		m.buildRowPair(u)
	}
	return m
}

// NewDistanceMatrixNaive computes the same matrix with the reference
// per-pair subtract-square loop (Dist2) at every dimension. It is the
// oracle the property tests pin the blocked kernel against and the
// baseline BenchmarkDistanceMatrix measures the blocked kernel's
// speedup over; production callers always want NewDistanceMatrix.
// Incremental updates on a naive matrix stay in the naive kernel.
func NewDistanceMatrixNaive(vectors [][]float64) *DistanceMatrix {
	m := newShell(vectors)
	m.gram = false
	for u := 0; u < m.n; u += 2 {
		m.buildRowPair(u)
	}
	return m
}

// shellPool recycles released matrices (see Release) so that one-shot
// aggregations — a fresh matrix per call, discarded on return — reuse
// their Θ(n·d + n²) storage instead of allocating it on every call.
var shellPool sync.Pool // stores *DistanceMatrix

// newShell validates dimensions, copies the vectors into contiguous
// storage, computes the squared norms, and zeroes the distance matrix,
// recycling a released matrix's storage when one is pooled. Both
// constructors share it.
func newShell(vectors [][]float64) *DistanceMatrix {
	matrixBuilds.Add(1)
	n := len(vectors)
	dim := 0
	if n > 0 {
		dim = len(vectors[0])
	}
	m, _ := shellPool.Get().(*DistanceMatrix)
	if m == nil {
		m = &DistanceMatrix{}
	}
	m.n, m.dim, m.gram = n, dim, dim > naiveDimMax
	m.vecs = resize(m.vecs, n*dim)
	m.nrm = resize(m.nrm, n)
	m.d = resize(m.d, n*n)
	clear(m.d)
	for i, v := range vectors {
		checkLen("NewDistanceMatrix", len(v), dim)
		copy(m.vector(i), v)
		m.nrm[i] = dotPair(v, v)
	}
	return m
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are arbitrary.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Release hands the matrix's storage back for reuse by a later build.
// The caller must hold the only reference: neither m nor any slice
// obtained from it (Row) may be used afterwards.
func (m *DistanceMatrix) Release() {
	shellPool.Put(m)
}

// vector returns the matrix's own copy of vector i.
func (m *DistanceMatrix) vector(i int) []float64 {
	return m.vecs[i*m.dim : (i+1)*m.dim]
}

// buildRowPair fills the strict upper-triangle cells of rows u and u+1
// and their mirrors: the unit of work NewDistanceMatrix runs at
// dimensions within one depth block, where buildBlocked would
// degenerate to the same walk. Working on two rows at once lets the
// inner loop run the 2×4 tile, which streams each column vector once
// for two rows. The dots go through the blocked wrappers of gram.go,
// so the result is bit-identical to buildBlocked's depth-first
// accumulation. A trailing odd row falls back to the 1×4 row kernel.
func (m *DistanceMatrix) buildRowPair(u int) {
	n := m.n
	if !m.gram {
		for i := u; i < n && i < u+2; i++ {
			vi := m.vector(i)
			for j := i + 1; j < n; j++ {
				dist := Dist2(vi, m.vector(j))
				m.d[i*n+j] = dist
				m.d[j*n+i] = dist
			}
		}
		return
	}
	if u+1 >= n {
		m.rowDots(u, u+1, n)
		m.assembleRow(u, u+1, n, true)
		return
	}
	v0, v1 := m.vector(u), m.vector(u+1)
	row0 := m.d[u*n : (u+1)*n]
	row1 := m.d[(u+1)*n : (u+2)*n]
	row0[u+1] = dotPair(v0, v1)
	var t [8]float64
	j := u + 2
	for ; j+4 <= n; j += 4 {
		dot24(v0, v1, m.vector(j), m.vector(j+1), m.vector(j+2), m.vector(j+3), &t)
		row0[j], row0[j+1], row0[j+2], row0[j+3] = t[0], t[1], t[2], t[3]
		row1[j], row1[j+1], row1[j+2], row1[j+3] = t[4], t[5], t[6], t[7]
	}
	for ; j < n; j++ {
		vj := m.vector(j)
		row0[j] = dotPair(v0, vj)
		row1[j] = dotPair(v1, vj)
	}
	m.assembleRow(u, u+1, n, true)
	m.assembleRow(u+1, u+2, n, true)
}

// buildBlocked fills the whole matrix depth-first: the outer loop walks
// k-blocks of gramBlock coordinates, the inner loop walks row pairs,
// and each pair's raw inner products accumulate across blocks in the
// cells of m.d (zero at allocation) before one final assembly pass
// turns them into clamped distances. Per pair this computes exactly the
// blocked order of gram.go — each block's lanes reduce and the block
// results sum in ascending k — so the matrix is bit-identical to the
// pair-at-a-time build; the loop inversion exists purely for locality.
// A pair-outer build streams every column vector once per earlier row
// pair (Θ(n²/4) vector loads, ~32 MB from L3 at n = 40, d = 10⁴),
// where this walk keeps all n slices of one k-block (n·gramBlock·8
// bytes, 640 KB at n = 40) L2-resident while the n²/2 tile kernels
// consume them — measured ~30% off the pair-outer wall clock at that
// shape on one core.
func (m *DistanceMatrix) buildBlocked() {
	n, d := m.n, m.dim
	var t [8]float64
	for k0 := 0; k0 < d; k0 += gramBlock {
		k1 := k0 + gramBlock
		if k1 > d {
			k1 = d
		}
		slice := func(i int) []float64 { return m.vecs[i*d+k0 : i*d+k1] }
		// Row pairs cover every strict-upper-triangle cell, including
		// column n−1 of an odd trailing row (reached as a column of the
		// earlier pairs, never as a row of its own).
		for u := 0; u+1 < n; u += 2 {
			v0, v1 := slice(u), slice(u+1)
			row0 := m.d[u*n : (u+1)*n]
			row1 := m.d[(u+1)*n : (u+2)*n]
			row0[u+1] += dotPairBlock(v0, v1)
			j := u + 2
			for ; j+4 <= n; j += 4 {
				dot24Block(v0, v1, slice(j), slice(j+1), slice(j+2), slice(j+3), &t)
				row0[j] += t[0]
				row0[j+1] += t[1]
				row0[j+2] += t[2]
				row0[j+3] += t[3]
				row1[j] += t[4]
				row1[j+1] += t[5]
				row1[j+2] += t[6]
				row1[j+3] += t[7]
			}
			for ; j < n; j++ {
				vj := slice(j)
				row0[j] += dotPairBlock(v0, vj)
				row1[j] += dotPairBlock(v1, vj)
			}
		}
	}
	for u := 0; u < n; u++ {
		m.assembleRow(u, u+1, n, true)
	}
}

// rowDots writes ⟨v_i, v_j⟩ for j in [from, to) into the d-row of i,
// using the 1×4 register tile with a dotPair remainder. Tile alignment
// never changes a pair's value: every column accumulates in the
// canonical dotPair order (see gram.go).
func (m *DistanceMatrix) rowDots(i, from, to int) {
	vi := m.vector(i)
	row := m.d[i*m.n : (i+1)*m.n]
	j := from
	for ; j+4 <= to; j += 4 {
		row[j], row[j+1], row[j+2], row[j+3] = dot4(
			vi, m.vector(j), m.vector(j+1), m.vector(j+2), m.vector(j+3))
	}
	for ; j < to; j++ {
		row[j] = dotPair(vi, m.vector(j))
	}
}

// assembleRow turns the inner products staged in row i's cells [from,
// to) into clamped squared distances, mirroring each value into column
// i when mirror is set. The clamp guards against the small negative
// results cancellation produces when ⟨a,b⟩ ≈ (‖a‖²+‖b‖²)/2.
func (m *DistanceMatrix) assembleRow(i, from, to int, mirror bool) {
	row := m.d[i*m.n : (i+1)*m.n]
	ni := m.nrm[i]
	for j := from; j < to; j++ {
		if j == i {
			row[i] = 0
			continue
		}
		v := ni + m.nrm[j] - 2*row[j]
		if v < 0 {
			v = 0
		}
		row[j] = v
		if mirror {
			m.d[j*m.n+i] = v
		}
	}
}

// UpdateRow replaces vector i with v and recomputes row and column i of
// the matrix in Θ(n·d) — the incremental alternative to a Θ(n²·d)
// rebuild when few vectors changed between rounds. The result is
// bit-identical to NewDistanceMatrix over the updated vector set: the
// recomputed pairs go through the same canonical inner-product order as
// a full build, and untouched cells are exactly the values a full build
// would recompute for unchanged vectors.
func (m *DistanceMatrix) UpdateRow(i int, v []float64) {
	m.setVector(i, v)
	m.recomputeRow(i)
}

// UpdateRows replaces every vector named in changed with its entry in
// vectors (the caller's full current vector set) and recomputes the
// affected rows and columns in Θ(c·n·d) for c changed vectors. All
// replacements are installed before any row is recomputed, so
// changed–changed pairs use both new vectors. Above gramBlock
// dimensions the batch runs depth-first (updateRowsBlocked) with the
// same locality win as a blocked full build; the result is
// bit-identical either way.
func (m *DistanceMatrix) UpdateRows(changed []int, vectors [][]float64) {
	for _, i := range changed {
		m.setVector(i, vectors[i])
	}
	if m.gram && m.dim > gramBlock && len(changed) >= 2 {
		m.updateRowsBlocked(dedupChanged(changed))
		return
	}
	// Recompute changed rows two at a time so the update path runs the
	// same bandwidth-saving 2×4 tile as a full build; a trailing odd
	// row uses the 1×4 row kernel. Changed–changed pairs are simply
	// computed from both (new) sides — the values agree bit for bit.
	k := 0
	for ; k+2 <= len(changed); k += 2 {
		m.recomputeRowDual(changed[k], changed[k+1])
	}
	if k < len(changed) {
		m.recomputeRow(changed[k])
	}
}

// dedupChanged returns changed without duplicate indices (first
// occurrence wins, order otherwise preserved). The common case — the
// cross-round cache diffs distinct proposal slots, so the set is
// already duplicate-free — returns the input unchanged without
// allocating.
func dedupChanged(changed []int) []int {
	for k := 1; k < len(changed); k++ {
		for l := 0; l < k; l++ {
			if changed[l] != changed[k] {
				continue
			}
			uniq := make([]int, 0, len(changed))
			seen := make(map[int]bool, len(changed))
			for _, i := range changed {
				if !seen[i] {
					seen[i] = true
					uniq = append(uniq, i)
				}
			}
			return uniq
		}
	}
	return changed
}

// updateRowsBlocked recomputes the changed rows depth-first over
// k-blocks, mirroring buildBlocked's locality: each k-block keeps the
// n vector slices it touches cache-resident while every changed row
// pair consumes them, instead of streaming the full n·d working set
// once per row pair (the bandwidth bill that made the pair-at-a-time
// batch ~25% slower per pair than a blocked build at n = 40,
// d = 10⁴). Per pair the raw dots accumulate in the canonical blocked
// order of gram.go, so the matrix stays bit-identical to the
// full-depth update path and to a rebuild. changed must be
// duplicate-free (rows accumulate in place, so a repeated index would
// double-count itself).
func (m *DistanceMatrix) updateRowsBlocked(changed []int) {
	matrixRowUpdates.Add(uint64(len(changed)))
	n, d := m.n, m.dim
	for _, i := range changed {
		row := m.d[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
	}
	var t [8]float64
	for k0 := 0; k0 < d; k0 += gramBlock {
		k1 := k0 + gramBlock
		if k1 > d {
			k1 = d
		}
		slice := func(i int) []float64 { return m.vecs[i*d+k0 : i*d+k1] }
		k := 0
		for ; k+2 <= len(changed); k += 2 {
			v0, v1 := slice(changed[k]), slice(changed[k+1])
			row0 := m.d[changed[k]*n : (changed[k]+1)*n]
			row1 := m.d[changed[k+1]*n : (changed[k+1]+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				dot24Block(v0, v1, slice(j), slice(j+1), slice(j+2), slice(j+3), &t)
				row0[j] += t[0]
				row0[j+1] += t[1]
				row0[j+2] += t[2]
				row0[j+3] += t[3]
				row1[j] += t[4]
				row1[j+1] += t[5]
				row1[j+2] += t[6]
				row1[j+3] += t[7]
			}
			for ; j < n; j++ {
				vj := slice(j)
				row0[j] += dotPairBlock(v0, vj)
				row1[j] += dotPairBlock(v1, vj)
			}
		}
		if k < len(changed) {
			vi := slice(changed[k])
			row := m.d[changed[k]*n : (changed[k]+1)*n]
			j := 0
			for ; j+4 <= n; j += 4 {
				r0, r1, r2, r3 := dot4Block(vi, slice(j), slice(j+1), slice(j+2), slice(j+3))
				row[j] += r0
				row[j+1] += r1
				row[j+2] += r2
				row[j+3] += r3
			}
			for ; j < n; j++ {
				row[j] += dotPairBlock(vi, slice(j))
			}
		}
	}
	// Assemble without mirroring first: a changed row's column cells in
	// OTHER changed rows still hold staged raw dots, and both sides of a
	// changed–changed pair staged the same canonical value, so each row
	// assembles independently of the rest. Then mirror the finished
	// distances into every column (rewriting another changed row's
	// already-assembled cell installs the identical value).
	for _, i := range changed {
		m.assembleRow(i, 0, n, false)
	}
	for _, i := range changed {
		for j := 0; j < n; j++ {
			m.d[j*n+i] = m.d[i*n+j]
		}
	}
}

// setVector installs a copy of v as vector i and refreshes its norm.
func (m *DistanceMatrix) setVector(i int, v []float64) {
	checkLen("UpdateRow", len(v), m.dim)
	copy(m.vector(i), v)
	m.nrm[i] = dotPair(v, v)
}

// recomputeRow recomputes every distance involving vector i from the
// stored vectors. The j == i cell passes through rowDots as the
// self-inner-product (keeping the tile walk uniform) and is then zeroed
// by assembleRow.
func (m *DistanceMatrix) recomputeRow(i int) {
	matrixRowUpdates.Add(1)
	n := m.n
	if !m.gram {
		vi := m.vector(i)
		for j := 0; j < n; j++ {
			dist := 0.0
			if j != i {
				dist = Dist2(vi, m.vector(j))
			}
			m.d[i*n+j] = dist
			m.d[j*n+i] = dist
		}
		return
	}
	m.rowDots(i, 0, n)
	m.assembleRow(i, 0, n, true)
}

// recomputeRowDual recomputes rows i0 and i1 together with the 2×4
// tile. The cross pair (i0, i1) is produced from both sides with the
// same canonical order, so the mirror writes agree. A duplicated index
// (the rows would alias) degrades to the single-row path.
func (m *DistanceMatrix) recomputeRowDual(i0, i1 int) {
	if i0 == i1 || !m.gram {
		m.recomputeRow(i0)
		if i0 != i1 {
			m.recomputeRow(i1)
		}
		return
	}
	matrixRowUpdates.Add(2)
	n := m.n
	v0, v1 := m.vector(i0), m.vector(i1)
	row0 := m.d[i0*n : (i0+1)*n]
	row1 := m.d[i1*n : (i1+1)*n]
	var t [8]float64
	j := 0
	for ; j+4 <= n; j += 4 {
		dot24(v0, v1, m.vector(j), m.vector(j+1), m.vector(j+2), m.vector(j+3), &t)
		row0[j], row0[j+1], row0[j+2], row0[j+3] = t[0], t[1], t[2], t[3]
		row1[j], row1[j+1], row1[j+2], row1[j+3] = t[4], t[5], t[6], t[7]
	}
	for ; j < n; j++ {
		vj := m.vector(j)
		row0[j] = dotPair(v0, vj)
		row1[j] = dotPair(v1, vj)
	}
	// Assembling row i0 mirrors its finished distances into column i0 —
	// overwriting row i1's STAGED raw dot at (i1, i0). Re-stage that
	// cross dot before assembling row i1.
	cross := row1[i0]
	m.assembleRow(i0, 0, n, true)
	row1[i0] = cross
	m.assembleRow(i1, 0, n, true)
}

// VectorEqual reports whether v is element-for-element identical to the
// matrix's stored copy of vector i — the exact comparison the
// cross-round cache uses to detect unchanged proposals. "Exact" is
// IEEE ==, deliberately NOT a bit-pattern comparison: NaN ≠ NaN, so a
// NaN-carrying proposal always counts as changed and a poisoned round
// can never be served from the cache (TestVectorEqual pins this; in
// practice distsgd halts a run as soon as parameters go non-finite, so
// the conservative recompute costs nothing real). A length mismatch is
// simply "not equal".
func (m *DistanceMatrix) VectorEqual(i int, v []float64) bool {
	if len(v) != m.dim {
		return false
	}
	w := m.vector(i)
	for k, x := range v {
		if x != w[k] {
			return false
		}
	}
	return true
}

// N returns the number of vectors the matrix was built from.
func (m *DistanceMatrix) N() int { return m.n }

// Dim returns the common dimension of the vectors.
func (m *DistanceMatrix) Dim() int { return m.dim }

// At returns the squared distance between vectors i and j.
func (m *DistanceMatrix) At(i, j int) float64 { return m.d[i*m.n+j] }

// Row returns the row of squared distances from vector i to every vector
// (including the zero self-distance). The returned slice aliases internal
// storage and must not be modified.
func (m *DistanceMatrix) Row(i int) []float64 { return m.d[i*m.n : (i+1)*m.n] }

// SumKSmallestExcludingSelf returns the sum of the k smallest squared
// distances from vector i to the other vectors (the self-distance is
// excluded). This is exactly the Krum score s(i) when k = n − f − 2.
//
// The selection runs in O(n·k) time with no allocation beyond a k-sized
// scratch buffer, keeping the overall Krum cost at O(n²·(d + n)) ≈
// O(n²·d) for the high-dimensional regime the paper targets.
func (m *DistanceMatrix) SumKSmallestExcludingSelf(i, k int, scratch []float64) float64 {
	row := m.Row(i)
	return sumKSmallest(row, i, k, scratch)
}

// sumKSmallest sums the k smallest entries of row, skipping index skip.
// scratch must have capacity ≥ k; it is used as a simple binary max-heap
// of the current k smallest values.
func sumKSmallest(row []float64, skip, k int, scratch []float64) float64 {
	if k <= 0 {
		return 0
	}
	heap := scratch[:0]
	for j, v := range row {
		if j == skip {
			continue
		}
		if len(heap) < k {
			heap = append(heap, v)
			siftUp(heap, len(heap)-1)
			continue
		}
		if v < heap[0] {
			heap[0] = v
			siftDown(heap, 0)
		}
	}
	var s float64
	for _, v := range heap {
		s += v
	}
	return s
}

// KSmallestIndices returns the indices of the k smallest entries of vals,
// skipping index skip (pass skip = -1 to consider every index). Ties are
// broken in favour of the smaller index, matching the paper's footnote 3
// tie-break rule. The result is sorted by (value, index).
func KSmallestIndices(vals []float64, skip, k int) []int {
	if k <= 0 {
		return nil
	}
	type entry struct {
		v float64
		i int
	}
	// Insertion into a bounded, sorted slice: O(n·k). k is small
	// relative to n in all our uses (k ≤ n), and this keeps the
	// tie-break deterministic without a full sort.
	best := make([]entry, 0, k)
	for i, v := range vals {
		if i == skip {
			continue
		}
		if len(best) == k && !lessEntry(v, i, best[k-1].v, best[k-1].i) {
			continue
		}
		pos := len(best)
		for pos > 0 && lessEntry(v, i, best[pos-1].v, best[pos-1].i) {
			pos--
		}
		if len(best) < k {
			best = append(best, entry{})
		}
		copy(best[pos+1:], best[pos:len(best)-1])
		best[pos] = entry{v: v, i: i}
	}
	out := make([]int, len(best))
	for i, e := range best {
		out[i] = e.i
	}
	return out
}

func lessEntry(v1 float64, i1 int, v2 float64, i2 int) bool {
	if v1 != v2 {
		return v1 < v2
	}
	return i1 < i2
}

func siftUp(h []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []float64, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l] > h[largest] {
			largest = l
		}
		if r < n && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

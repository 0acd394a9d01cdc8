package vec

// This file holds the blocked Gram-trick microkernels behind
// DistanceMatrix: every pairwise squared distance is assembled as
//
//	‖a−b‖² = ‖a‖² + ‖b‖² − 2·⟨a,b⟩
//
// so the O(n²·d) work collapses into inner products, which vectorize
// far better than the per-pair subtract-square loop (no serial
// dependency on a single accumulator, one shared load of a[k] feeding
// four columns).
//
// BIT-STABILITY CONTRACT (per tier — ROADMAP decision (a)): every
// kernel TIER (tier.go) defines its own canonical accumulation order
// for an inner product, and WITHIN a tier every entry point — dot4
// columns, norms, row updates, the blocked and pair-at-a-time builds,
// the incremental UpdateRow path — reproduces exactly that order.
// IEEE-754 multiplication is commutative bit for bit and the k-order
// never changes within a tier, so ⟨a,b⟩ is bit-identical whichever
// kernel shape, loop nest, or tile alignment computes it. This is what
// lets DistanceMatrix.UpdateRow promise results identical to a full
// rebuild, and the scenario runner promise identical results across
// worker counts — all per tier.
//
// The canonical order has two levels:
//
// DEPTH BLOCKING (both families): an inner product of dimension d is
// accumulated in consecutive k-blocks of gramBlock elements. Each
// block starts its lane accumulators at zero, runs the family's lane
// order below, and reduces; the per-block results are then summed into
// one scalar in ascending-k order. For d ≤ gramBlock this is exactly
// the single-pass order (one block), so the golden vectors and every
// small-dimension result are unchanged by blocking. The block seam is
// what lets DistanceMatrix build depth-first at deep-learning
// dimensions — all n vectors' k-slices stay cache-resident while every
// pair consumes them — without perturbing a single bit: a pair's value
// depends only on the k-sequence its own lanes consume, never on which
// loop nest (pair-outer dot24 over full vectors, or block-outer
// partial sums) drove the kernel.
//
// LANE ORDER (the order families):
//
//   - "pair2" (TierGo here, TierSSE2 in gram_amd64.s): dotPairGo's two
//     interleaved even/odd partial sums, reduced as s0+s1. The SSE2
//     assembly's two 64-bit XMM lanes ARE the (s0, s1) pair, so the go
//     and sse2 tiers agree bit for bit on every input.
//   - "fma4" (TierAVX2, reference dotFMAGo in gram_fma.go): four
//     interleaved fused-multiply-add partial sums, reduced as
//     (s0+s2)+(s1+s3). Fusing drops the per-term product rounding, so
//     fma4 results differ from pair2 in the low bits.
//
// ACROSS tiers equality is only promised to the norm-relative
// tolerance of dist_property_test.go's error model; anything that
// persists or exchanges result bytes must therefore carry the order
// id (Tier.Order): the scenario store salts keys with it, distsgd
// records it in Result.Kernel, and the fleet join handshake pins it.
//
// dotPair, dot4 and dot24 (the names the matrix code calls) are the
// blocked wrappers below; the per-block primitives dotPairBlock,
// dot4Block and dot24Block dispatch on the active tier (gram_amd64.go
// on amd64, this package's pure-Go references elsewhere).
// gram_test.go pins every tier to its reference order, to fixed golden
// vectors, and to the blocked composition at multi-block dimensions.

// gramBlock is the depth-blocking factor of the canonical accumulation
// order: inner products accumulate in k-blocks of this many elements
// (see the contract above). It is part of the observable order — low
// bits at d > gramBlock depend on it — so changing it is a
// result-changing event exactly like changing a lane order: the order
// family names would need new ids. 2048 doubles (16 KiB per vector
// slice) keeps a 2×4 tile's six operand slices under typical L1/L2
// budgets while amortizing the per-call reduction to noise; it is a
// multiple of 8, so every block starts lane-phase-aligned for both
// families. Tuned on BenchmarkDistanceMatrix at n = 40, d = 10⁴
// against 1024/4096/unblocked.
const gramBlock = 2048

// dotPair returns ⟨a,b⟩ in the active tier's canonical blocked
// accumulation order.
func dotPair(a, b []float64) float64 {
	n := len(a)
	if n <= gramBlock {
		return dotPairBlock(a, b)
	}
	b = b[:n]
	var s float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		s += dotPairBlock(a[k:e], b[k:e])
	}
	return s
}

// dot4 returns ⟨a,b0⟩, ⟨a,b1⟩, ⟨a,b2⟩, ⟨a,b3⟩ in the active tier's
// canonical blocked order; every column is bit-identical to
// dotPair(a, bi).
func dot4(a, b0, b1, b2, b3 []float64) (float64, float64, float64, float64) {
	n := len(a)
	if n <= gramBlock {
		return dot4Block(a, b0, b1, b2, b3)
	}
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var r0, r1, r2, r3 float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		p0, p1, p2, p3 := dot4Block(a[k:e], b0[k:e], b1[k:e], b2[k:e], b3[k:e])
		r0 += p0
		r1 += p1
		r2 += p2
		r3 += p3
	}
	return r0, r1, r2, r3
}

// dot24 computes the 2×4 tile in the active tier's canonical blocked
// order; see dot24Go for the output layout. Every cell is
// bit-identical to the corresponding dotPair.
func dot24(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	n := len(a0)
	if n <= gramBlock {
		dot24Block(a0, a1, b0, b1, b2, b3, out)
		return
	}
	a1 = a1[:n]
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	*out = [8]float64{}
	var t [8]float64
	for k := 0; k < n; k += gramBlock {
		e := k + gramBlock
		if e > n {
			e = n
		}
		dot24Block(a0[k:e], a1[k:e], b0[k:e], b1[k:e], b2[k:e], b3[k:e], &t)
		for i := range out {
			out[i] += t[i]
		}
	}
}

// dotPairGo returns ⟨a,b⟩ using the canonical two-accumulator order.
// The two independent chains break the add-latency dependency that
// bounds the naive loop; the final reduction is s0 + s1.
func dotPairGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1 float64
	k := 0
	for ; k+2 <= len(a); k += 2 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
	}
	if k < len(a) {
		s0 += a[k] * b[k]
	}
	return s0 + s1
}

// dot4Go returns ⟨a,b0⟩, ⟨a,b1⟩, ⟨a,b2⟩, ⟨a,b3⟩ in one pass over a:
// the 1×4 register tile of the blocked kernel. Each load of a[k] feeds
// four independent multiply-add chains, and every column keeps its own
// even/odd accumulator pair, so each result is bit-identical to
// dotPairGo(a, bi).
func dot4Go(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64) {
	n := len(a)
	b0 = b0[:n]
	b1 = b1[:n]
	b2 = b2[:n]
	b3 = b3[:n]
	var p0, q0, p1, q1, p2, q2, p3, q3 float64
	k := 0
	for ; k+2 <= n; k += 2 {
		x, y := a[k], a[k+1]
		p0 += x * b0[k]
		q0 += y * b0[k+1]
		p1 += x * b1[k]
		q1 += y * b1[k+1]
		p2 += x * b2[k]
		q2 += y * b2[k+1]
		p3 += x * b3[k]
		q3 += y * b3[k+1]
	}
	if k < n {
		x := a[k]
		p0 += x * b0[k]
		p1 += x * b1[k]
		p2 += x * b2[k]
		p3 += x * b3[k]
	}
	return p0 + q0, p1 + q1, p2 + q2, p3 + q3
}

// dot24Go is the 2×4 tile: the dots of two row vectors a0, a1 against
// four column vectors in one conceptual pass, written to out as
// [⟨a0,b0⟩..⟨a0,b3⟩, ⟨a1,b0⟩..⟨a1,b3⟩]. The tile exists for memory
// traffic, not arithmetic: each streamed b column is reused by two
// rows, cutting the bandwidth per pair to 6/8 of a vector where the
// 1×4 tile pays 5/4. Every pair keeps the canonical dotPairGo order —
// the reference implementation simply runs dot4Go twice.
func dot24Go(a0, a1, b0, b1, b2, b3 []float64, out *[8]float64) {
	out[0], out[1], out[2], out[3] = dot4Go(a0, b0, b1, b2, b3)
	out[4], out[5], out[6], out[7] = dot4Go(a1, b0, b1, b2, b3)
}

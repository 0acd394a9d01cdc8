package core

import (
	"krum/internal/vec"
)

// RoundContext carries the state shared by every rule invocation over
// one round's proposals — above all the O(n²·d) pairwise distance
// matrix of Lemma 4.1, which is computed lazily and AT MOST ONCE no
// matter how many distance-based rules (or how many iterated-Krum
// passes inside Bulyan) consume it.
//
// A context is cheap to create; the matrix is only built when a rule
// first asks for it. Contexts are single-round objects: the proposals
// must not be mutated while a context referencing them is in use.
type RoundContext struct {
	vectors [][]float64
	dm      *vec.DistanceMatrix
	// cache, when non-nil, serves Distances through the engine's
	// cross-round cache instead of building a fresh matrix.
	cache *RoundCache
	// changed is the caller-declared change-set (see SetChanged);
	// changedKnown distinguishes "nothing changed" from "unknown".
	changed      []int
	changedKnown bool
}

// NewRoundContext returns a context over one round's proposals.
func NewRoundContext(vectors [][]float64) *RoundContext {
	return &RoundContext{vectors: vectors}
}

// SetChanged declares the change-set for a cached round: the indices
// of proposals whose contents differ from the previous round's (as
// held by the engine's RoundCache). The contract is one-sided — every
// changed index MUST be listed, extra indices merely waste work. Rounds
// through an uncached engine ignore the declaration. Callers that do
// not know their change-set should not call SetChanged at all: the
// cache then diffs the proposals itself. It returns the context for
// chaining.
func (c *RoundContext) SetChanged(changed []int) *RoundContext {
	c.changed = changed
	c.changedKnown = true
	return c
}

// N returns the number of proposals.
func (c *RoundContext) N() int { return len(c.vectors) }

// Vectors returns the round's proposals. Callers must not mutate them.
func (c *RoundContext) Vectors() [][]float64 { return c.vectors }

// Distances returns the pairwise squared-distance matrix, building it
// on first use and memoizing it for every later caller. Contexts from
// a cache-enabled engine route through the cross-round RoundCache,
// which recomputes only the rows of changed proposals when it can.
//
// Aliasing: on a cache-enabled engine the returned matrix is the
// cache's long-lived instance — the NEXT round's update rewrites its
// cells in place. Use it within the round it was obtained for; callers
// that need to retain distances across rounds must copy them out.
func (c *RoundContext) Distances() *vec.DistanceMatrix {
	if c.dm == nil {
		if c.cache != nil {
			c.dm = c.cache.distances(c.vectors, c.changed, c.changedKnown)
		} else {
			c.dm = vec.NewDistanceMatrix(c.vectors)
		}
	}
	return c.dm
}

// Release recycles a matrix the context built for itself. Call it once
// every consumer of the round is done with Distances: the one-shot rule
// calls do so on return, and the training loop after the round's step.
// A matrix served by the cross-round cache stays with the cache.
func (c *RoundContext) Release() {
	if c.dm != nil && c.cache == nil {
		c.dm.Release()
		c.dm = nil
	}
}

// ContextSelector is implemented by selection rules whose Select can
// run against a shared RoundContext, reusing its distance matrix
// instead of computing their own.
type ContextSelector interface {
	Selector
	// SelectContext is Select over the context's proposals.
	SelectContext(ctx *RoundContext) ([]int, error)
}

// ContextRule is implemented by rules whose Aggregate can run against a
// shared RoundContext.
type ContextRule interface {
	Rule
	// AggregateContext is Aggregate over the context's proposals.
	AggregateContext(dst []float64, ctx *RoundContext) error
}

// SelectContext runs rule.Select through the shared context when the
// rule supports it, falling back to the plain path otherwise.
func SelectContext(rule Selector, ctx *RoundContext) ([]int, error) {
	if cs, ok := rule.(ContextSelector); ok {
		return cs.SelectContext(ctx)
	}
	return rule.Select(ctx.Vectors())
}

// AggregateContext runs rule.Aggregate through the shared context when
// the rule supports it, falling back to the plain path otherwise.
func AggregateContext(rule Rule, dst []float64, ctx *RoundContext) error {
	if cr, ok := rule.(ContextRule); ok {
		return cr.AggregateContext(dst, ctx)
	}
	return rule.Aggregate(dst, ctx.Vectors())
}

// RoundCache carries the distance matrix ACROSS rounds: because SGD
// proposals often move little (or, for crashed/replaying Byzantine
// workers, not at all) between consecutive rounds, a round in which
// only c of n proposals changed needs only those c rows recomputed —
// Θ(c·n·d) instead of the full Θ(n²·d) rebuild (Lemma 4.1's bill).
//
// The cache holds its own copies of the previous round's vectors
// (inside vec.DistanceMatrix), so callers may freely recycle proposal
// buffers between rounds. It falls back to a full rebuild when there
// is nothing to reuse: the first round, a shape change (different n or
// d), or a change-set covering every proposal.
//
// A RoundCache is owned by one Engine and is NOT goroutine-safe: it
// serves the strictly sequential round loop of a single training run
// (concurrent scenario cells each own their engine).
type RoundCache struct {
	dm *vec.DistanceMatrix
	// stats, exposed through Stats for tests and diagnostics.
	builds  uint64
	reuses  uint64
	rowUpds uint64
}

// CacheStats summarizes how a RoundCache served its rounds.
type CacheStats struct {
	// Builds counts full matrix (re)builds, including the first round.
	Builds uint64
	// Reuses counts rounds served without building: fully unchanged
	// rounds plus rounds served by incremental row updates.
	Reuses uint64
	// RowUpdates counts individual row recomputations across all
	// incremental rounds.
	RowUpdates uint64
}

// Stats returns the cache's serving counters.
func (rc *RoundCache) Stats() CacheStats {
	return CacheStats{Builds: rc.builds, Reuses: rc.reuses, RowUpdates: rc.rowUpds}
}

// Changed returns the indices of vectors that differ from the cache's
// stored copies — the honest change-set a round loop passes to
// RoundContext.SetChanged. With no cached matrix (or a shape change)
// every index is returned. The comparison is exact IEEE equality
// (vec.DistanceMatrix.VectorEqual): a proposal that merely wiggles in
// the last ulp still counts as changed — correctness never depends on
// a tolerance — and NaN ≠ NaN, so a non-finite proposal always counts
// as changed rather than ever being served from the cache.
func (rc *RoundCache) Changed(vectors [][]float64) []int {
	n := len(vectors)
	if !rc.reusable(vectors) {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var changed []int
	for i, v := range vectors {
		if !rc.dm.VectorEqual(i, v) {
			changed = append(changed, i)
		}
	}
	return changed
}

// reusable reports whether the cached matrix matches the round's shape.
func (rc *RoundCache) reusable(vectors [][]float64) bool {
	n := len(vectors)
	if rc.dm == nil || rc.dm.N() != n || n == 0 {
		return false
	}
	return rc.dm.Dim() == len(vectors[0])
}

// distances serves one round's matrix: full rebuild when the cache is
// cold, the shape changed, or (nearly) everything changed; otherwise
// incremental row updates for the changed set. An unknown change-set
// is diffed here, so cached engines stay transparent to callers that
// never declare one.
func (rc *RoundCache) distances(vectors [][]float64, changed []int, changedKnown bool) *vec.DistanceMatrix {
	if !rc.reusable(vectors) {
		rc.dm = vec.NewDistanceMatrix(vectors)
		rc.builds++
		return rc.dm
	}
	if !changedKnown {
		changed = rc.Changed(vectors)
	}
	if len(changed) >= len(vectors) {
		rc.dm = vec.NewDistanceMatrix(vectors)
		rc.builds++
		return rc.dm
	}
	rc.reuses++
	if len(changed) > 0 {
		rc.dm.UpdateRows(changed, vectors)
		rc.rowUpds += uint64(len(changed))
	}
	return rc.dm
}

// Engine is the shared aggregation engine of the parameter server: it
// hands out one RoundContext per round so that selection tracking,
// aggregation, and any diagnostics all share a single distance matrix.
// The zero value is ready to use (no cross-round cache).
type Engine struct {
	// cache, when enabled, reuses the previous round's matrix through
	// incremental row updates; see RoundCache.
	cache *RoundCache
}

// NewEngine returns an engine without a cross-round cache.
func NewEngine() *Engine { return &Engine{} }

// EnableCache switches the engine to cross-round incremental distance
// updates (idempotent) and returns the engine for chaining. Enabling
// the cache never changes results — reused and recomputed cells are
// bit-identical to a fresh build — it only changes how much of the
// matrix each round recomputes, at the price of the cache retaining
// O(n·d + n²) memory between rounds.
func (e *Engine) EnableCache() *Engine {
	if e.cache == nil {
		e.cache = &RoundCache{}
	}
	return e
}

// Cache returns the engine's cross-round cache, or nil when caching is
// not enabled.
func (e *Engine) Cache() *RoundCache { return e.cache }

// Round returns the shared context for one round's proposals. On a
// cache-enabled engine the context serves Distances through the
// cache; pass the round's change-set with RoundContext.SetChanged to
// skip the cache's own diff.
func (e *Engine) Round(vectors [][]float64) *RoundContext {
	return &RoundContext{vectors: vectors, cache: e.cache}
}

// Select runs a selection rule over one round through a fresh context.
func (e *Engine) Select(rule Selector, vectors [][]float64) ([]int, error) {
	return SelectContext(rule, e.Round(vectors))
}

// Aggregate runs a rule over one round through a fresh context.
func (e *Engine) Aggregate(rule Rule, dst []float64, vectors [][]float64) error {
	return AggregateContext(rule, dst, e.Round(vectors))
}

package core

import (
	"testing"

	"krum/internal/vec"
)

// cacheRound pulls one round's matrix through a cache-enabled engine,
// declaring the change-set the way the distsgd round loop does.
func cacheRound(e *Engine, vs [][]float64) *vec.DistanceMatrix {
	return e.Round(vs).SetChanged(e.Cache().Changed(vs)).Distances()
}

// TestRoundCacheReusesUnchangedRound: a second round over bit-identical
// proposals builds nothing and recomputes no rows.
func TestRoundCacheReusesUnchangedRound(t *testing.T) {
	vs := engineTestVectors(9, 24, 7)
	e := NewEngine().EnableCache()
	first := cacheRound(e, vs)
	builds := vec.MatrixBuildCount()
	rows := vec.MatrixRowUpdateCount()
	second := cacheRound(e, vec.CloneAll(vs)) // equal contents, different buffers
	if second != first {
		t.Error("unchanged round did not return the cached matrix")
	}
	if got := vec.MatrixBuildCount() - builds; got != 0 {
		t.Errorf("unchanged round built %d matrices", got)
	}
	if got := vec.MatrixRowUpdateCount() - rows; got != 0 {
		t.Errorf("unchanged round recomputed %d rows", got)
	}
	st := e.Cache().Stats()
	if st.Builds != 1 || st.Reuses != 1 || st.RowUpdates != 0 {
		t.Errorf("stats = %+v, want 1 build / 1 reuse / 0 row updates", st)
	}
}

// TestRoundCacheIncrementalMatchesRebuild: after mutating a few
// proposals, the cached matrix must be bit-identical to a from-scratch
// build over the new proposals, having recomputed only the changed
// rows.
func TestRoundCacheIncrementalMatchesRebuild(t *testing.T) {
	const n, d = 11, 40
	vs := engineTestVectors(n, d, 3)
	e := NewEngine().EnableCache()
	cacheRound(e, vs)

	next := vec.CloneAll(vs)
	next[2] = engineTestVectors(1, d, 99)[0]
	next[7] = engineTestVectors(1, d, 100)[0]
	builds := vec.MatrixBuildCount()
	rows := vec.MatrixRowUpdateCount()
	got := cacheRound(e, next)
	if b := vec.MatrixBuildCount() - builds; b != 0 {
		t.Errorf("incremental round built %d matrices", b)
	}
	if r := vec.MatrixRowUpdateCount() - rows; r != 2 {
		t.Errorf("incremental round recomputed %d rows, want 2", r)
	}
	want := vec.NewDistanceMatrix(next)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d): cached %v, rebuild %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestRoundCacheBypasses: the documented full-rebuild cases — first
// round, a shape change (n or d), and a change-set covering every
// proposal — must all build rather than update.
func TestRoundCacheBypasses(t *testing.T) {
	e := NewEngine().EnableCache()
	before := vec.MatrixBuildCount()
	cacheRound(e, engineTestVectors(6, 20, 1)) // first round
	cacheRound(e, engineTestVectors(7, 20, 2)) // n changed
	cacheRound(e, engineTestVectors(7, 21, 3)) // d changed
	cacheRound(e, engineTestVectors(7, 21, 4)) // everything changed
	if got := vec.MatrixBuildCount() - before; got != 4 {
		t.Errorf("bypass rounds built %d matrices, want 4", got)
	}
	st := e.Cache().Stats()
	if st.Builds != 4 || st.Reuses != 0 || st.RowUpdates != 0 {
		t.Errorf("stats = %+v, want 4 builds / 0 reuses / 0 row updates", st)
	}
}

// TestRoundCacheUndeclaredChangeSet: a context from a cached engine
// that never calls SetChanged must still serve correct matrices — the
// cache diffs the proposals itself.
func TestRoundCacheUndeclaredChangeSet(t *testing.T) {
	const n, d = 8, 30
	vs := engineTestVectors(n, d, 5)
	e := NewEngine().EnableCache()
	e.Round(vs).Distances()
	next := vec.CloneAll(vs)
	next[4] = engineTestVectors(1, d, 50)[0]
	rows := vec.MatrixRowUpdateCount()
	got := e.Round(next).Distances()
	if r := vec.MatrixRowUpdateCount() - rows; r != 1 {
		t.Errorf("auto-diffed round recomputed %d rows, want 1", r)
	}
	want := vec.NewDistanceMatrix(next)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("cell (%d,%d): cached %v, rebuild %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestRoundCacheChangedReportsAll: Changed on a cold or shape-mismatched
// cache names every index.
func TestRoundCacheChangedReportsAll(t *testing.T) {
	e := NewEngine().EnableCache()
	vs := engineTestVectors(5, 10, 8)
	changed := e.Cache().Changed(vs)
	if len(changed) != 5 {
		t.Fatalf("cold cache Changed = %v, want all 5", changed)
	}
	cacheRound(e, vs)
	if got := e.Cache().Changed(vs); len(got) != 0 {
		t.Errorf("identical round Changed = %v, want empty", got)
	}
	if got := e.Cache().Changed(engineTestVectors(6, 10, 9)); len(got) != 6 {
		t.Errorf("shape change Changed = %v, want all 6", got)
	}
}

// TestUncachedEngineIgnoresSetChanged: declaring a change-set on a
// plain engine is inert — every round builds fresh (the PR-1 memoized
// behavior is unchanged).
func TestUncachedEngineIgnoresSetChanged(t *testing.T) {
	vs := engineTestVectors(6, 12, 11)
	e := NewEngine()
	if e.Cache() != nil {
		t.Fatal("plain engine has a cache")
	}
	before := vec.MatrixBuildCount()
	e.Round(vs).SetChanged(nil).Distances()
	e.Round(vs).SetChanged(nil).Distances()
	if got := vec.MatrixBuildCount() - before; got != 2 {
		t.Errorf("uncached engine built %d matrices, want 2", got)
	}
}

package core

import (
	"testing"

	"krum/internal/vec"
)

func engineTestVectors(n, d int, seed uint64) [][]float64 {
	rng := vec.NewRNG(seed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
}

// TestRoundContextMemoizesMatrix: selection tracking plus aggregation
// through one shared context builds exactly one distance matrix.
func TestRoundContextMemoizesMatrix(t *testing.T) {
	const n, d, f = 11, 8, 2
	vs := engineTestVectors(n, d, 1)
	dst := make([]float64, d)
	rule := NewKrum(f)
	engine := NewEngine()

	before := vec.MatrixBuildCount()
	ctx := engine.Round(vs)
	if _, err := SelectContext(rule, ctx); err != nil {
		t.Fatal(err)
	}
	if err := AggregateContext(rule, dst, ctx); err != nil {
		t.Fatal(err)
	}
	if got := vec.MatrixBuildCount() - before; got != 1 {
		t.Fatalf("shared context built %d matrices for select+aggregate, want 1", got)
	}

	// The plain path pays twice — that is exactly what the engine saves.
	before = vec.MatrixBuildCount()
	if _, err := rule.Select(vs); err != nil {
		t.Fatal(err)
	}
	if err := rule.Aggregate(dst, vs); err != nil {
		t.Fatal(err)
	}
	if got := vec.MatrixBuildCount() - before; got != 2 {
		t.Fatalf("plain path built %d matrices, want 2", got)
	}
}

// TestEngineMatchesDirectRules: for every registered rule, aggregation
// through the engine produces the same output (and the same selection)
// as calling the rule directly.
func TestEngineMatchesDirectRules(t *testing.T) {
	const n, d = 15, 7
	ctx := SpecContext{N: n, F: 3}
	vs := engineTestVectors(n, d, 2)
	engine := NewEngine()
	for _, name := range Names() {
		spec := name
		if name == "krumk" {
			spec = "krumk(k=3)"
		}
		rule, err := ParseRuleIn(ctx, spec)
		if err != nil {
			t.Fatalf("ParseRuleIn(%q): %v", spec, err)
		}
		direct := make([]float64, d)
		viaEngine := make([]float64, d)
		if err := rule.Aggregate(direct, vs); err != nil {
			t.Fatalf("%s direct: %v", spec, err)
		}
		if err := engine.Aggregate(rule, viaEngine, vs); err != nil {
			t.Fatalf("%s engine: %v", spec, err)
		}
		if !vec.ApproxEqual(direct, viaEngine, 0) {
			t.Errorf("%s: engine output differs from direct output", spec)
		}
		sel, ok := rule.(Selector)
		if !ok {
			continue
		}
		want, err := sel.Select(vs)
		if err != nil {
			t.Fatalf("%s direct select: %v", spec, err)
		}
		got, err := engine.Select(sel, vs)
		if err != nil {
			t.Fatalf("%s engine select: %v", spec, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: engine selected %v, direct %v", spec, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: engine selected %v, direct %v", spec, got, want)
			}
		}
	}
}

// TestFiniteGuardContextSharesMatrixWhenClean: a guard wrapping a
// context-aware rule reuses the shared matrix when no proposal needs
// sanitization, and still neutralizes NaNs when one does.
func TestFiniteGuardContextSharesMatrixWhenClean(t *testing.T) {
	const n, d, f = 11, 6, 2
	vs := engineTestVectors(n, d, 4)
	dst := make([]float64, d)
	guard := FiniteGuard{Inner: NewKrum(f)}
	engine := NewEngine()

	before := vec.MatrixBuildCount()
	ctx := engine.Round(vs)
	if _, err := SelectContext(guard, ctx); err != nil {
		t.Fatal(err)
	}
	if err := AggregateContext(guard, dst, ctx); err != nil {
		t.Fatal(err)
	}
	if got := vec.MatrixBuildCount() - before; got != 1 {
		t.Fatalf("clean guard built %d matrices, want 1", got)
	}

	// Poison one proposal: the guard must rebuild over the sanitized
	// view and still aggregate finitely.
	poisoned := vec.CloneAll(vs)
	poisoned[0][0] = nan()
	if err := engine.Aggregate(guard, dst, poisoned); err != nil {
		t.Fatal(err)
	}
	if !vec.AllFinite(dst) {
		t.Fatal("guard let a NaN through")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"

	"krum/distsgd"
	"krum/scenario"
	"krum/scenario/store"
)

// benchCells lists every cell spec the in-process workloads run. Under
// -short the train-large cells keep their shape but train 30 rounds.
func benchCells(t *testing.T) []scenario.Spec {
	cells := gridMatrix(7).Cells()
	for _, c := range trainCells(7) {
		if testing.Short() {
			c.Rounds, c.EvalEvery = 30, 30
		}
		cells = append(cells, c)
	}
	return cells
}

// TestWrappersTransparent checks that the traced run's wrappers change
// no result byte: for every grid-cold and train-large cell, with and
// without TrackSelection, a wrapped distsgd.Run gives the same
// stable-JSON bytes as a plain one.
func TestWrappersTransparent(t *testing.T) {
	tr := newTracer()
	for _, cell := range benchCells(t) {
		for _, track := range []bool{false, true} {
			cell.TrackSelection = track
			cfg, err := cell.Compile()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := distsgd.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cell.Label(), err)
			}
			traced, err := runTraced(tr.scope(cell.Label()), 0, cfg)
			if err != nil {
				t.Fatalf("%s traced: %v", cell.Label(), err)
			}
			want, _ := json.Marshal(plain)
			got, _ := json.Marshal(traced)
			if !bytes.Equal(want, got) {
				t.Errorf("%s track=%v: traced result differs from the plain run", cell.Label(), track)
			}
		}
	}
	if tr.st.rounds.Load() == 0 || tr.st.samples.Load() == 0 || tr.st.gradCalls.Load() == 0 {
		t.Errorf("wrappers recorded nothing: rounds=%d samples=%d grads=%d",
			tr.st.rounds.Load(), tr.st.samples.Load(), tr.st.gradCalls.Load())
	}
}

// TestTracedExecutorMatchesRunner runs the grid-cold matrix through a
// default Runner and through the traced executor and compares every
// cell's bytes.
func TestTracedExecutorMatchesRunner(t *testing.T) {
	m := gridMatrix(3)
	plain, err := (&scenario.Runner{Workers: runtime.NumCPU(), Store: store.NewMemory()}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	tr := newTracer()
	traced, err := (&scenario.Runner{Workers: runtime.NumCPU(), Executor: tracedExecutor{st: st, t: tr}}).Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		want, _ := json.Marshal(plain[i].Result)
		got, _ := json.Marshal(traced[i].Result)
		if !bytes.Equal(want, got) {
			t.Errorf("cell %d (%s): traced executor changed the result", i, plain[i].Spec.Label())
		}
	}
	if got := tr.st.cells.Load(); got != int64(len(plain)) {
		t.Errorf("traced %d cells, want %d", got, len(plain))
	}
	if s := st.Stats(); s.Saves != len(plain) {
		t.Errorf("store saved %d cells, want %d", s.Saves, len(plain))
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	children := []span{{Start: 5, End: 8}, {Start: 0, End: 3}, {Start: 2, End: 4}, {Start: 9, End: 20}}
	// Union within [1, 10]: [1,4] + [5,8] + [9,10] = 3 + 3 + 1.
	if got := covered(children, 1, 10); got != 7 {
		t.Errorf("covered = %d, want 7", got)
	}
}

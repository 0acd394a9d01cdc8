package krum_test

// Benchmarks regenerating every table and figure of the reproduction
// (see EXPERIMENTS.md): one testing.B per artifact, each running the
// quick-scale experiment end to end, plus microbenchmarks of the Krum
// kernel across the Lemma 4.1 (n, d) grid. Run with
//
//	go test -bench=. -benchmem
//
// The figure benches report the headline metric of their artifact as a
// custom b.ReportMetric value so the bench log doubles as a results
// table.

import (
	"fmt"
	"io"
	"os"
	"testing"

	"krum"
	"krum/data"
	"krum/internal/harness"
	"krum/internal/vec"
	"krum/scenario"
	"krum/scenario/store"
	"krum/workload"
)

// benchSeed keeps bench results stable across runs.
const benchSeed = 42

// BenchmarkLemma31 regenerates E1 (one Byzantine worker vs linear
// rules).
func BenchmarkLemma31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLemma31(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumFinalAccuracy, "krum-acc")
		b.ReportMetric(boolMetric(res.AverageDiverged || res.AverageFinalAccuracy < 0.6), "avg-destroyed")
	}
}

// BenchmarkFig2Medoid regenerates E2 (medoid collusion).
func BenchmarkFig2Medoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig2(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		// Row for f=2 carries the headline claim.
		b.ReportMetric(res.Rows[1].MedoidByzRate, "medoid-captured")
		b.ReportMetric(res.Rows[1].KrumByzRate, "krum-captured")
	}
}

// BenchmarkLemma41Fit regenerates E3 (cost-model fit quality).
func BenchmarkLemma41Fit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunLemma41(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.R2, "n2d-fit-r2")
	}
}

// BenchmarkProp42 regenerates E4 (resilience Monte Carlo).
func BenchmarkProp42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunProp42(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		pass := 0
		for _, row := range res.Rows {
			if row.SinAlpha < 1 && row.KrumConditionI && row.KrumConditionII {
				pass++
			}
		}
		b.ReportMetric(float64(pass), "krum-resilient-rows")
	}
}

// BenchmarkProp43 regenerates E5 (convergence under attack).
func BenchmarkProp43(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunProp43(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionFactor, "gradnorm-reduction")
	}
}

// BenchmarkFig4Gaussian regenerates F4 (Gaussian attack curves).
func BenchmarkFig4Gaussian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig4(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumByzFinal, "krum-byz-acc")
		b.ReportMetric(res.AvgByzFinal, "avg-byz-acc")
	}
}

// BenchmarkFig5Omniscient regenerates F5 (omniscient attack curves).
func BenchmarkFig5Omniscient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig5(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KrumByzFinal, "krum-byz-acc")
		b.ReportMetric(boolMetric(res.AvgByzDiverged || res.AvgByzFinal < 0.3), "avg-destroyed")
	}
}

// BenchmarkFig6MultiKrum regenerates F6 (Multi-Krum trade-off).
func BenchmarkFig6MultiKrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].ByzFinal, "m1-byz-acc")
		b.ReportMetric(res.Rows[len(res.Rows)-1].ByzFinal, "mn-byz-acc")
	}
}

// BenchmarkFig7Batch regenerates F7 (cost of resilience).
func BenchmarkFig7Batch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig7(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(res.AverageCleanFinal-last.KrumByzFinal, "residual-gap")
	}
}

// BenchmarkTable1Selection regenerates T1 (selection-rate matrix).
func BenchmarkTable1Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTable1(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if cell := res.Cell("gaussian(sigma=200)", "krum"); cell != nil {
			b.ReportMetric(cell.ByzSelectedRate, "krum-gauss-selrate")
		}
	}
}

// --- Kernel microbenchmarks: the Lemma 4.1 grid -----------------------

// benchVectors builds n random d-dimensional proposals.
func benchVectors(n, d int) [][]float64 {
	rng := vec.NewRNG(benchSeed)
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = rng.NewNormal(d, 0, 1)
	}
	return vs
}

// BenchmarkKrumScaling measures the Krum kernel across the (n, d) grid;
// ns/op should scale as n²·d (Lemma 4.1).
func BenchmarkKrumScaling(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40, 80} {
		for _, d := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(b *testing.B) {
				vs := benchVectors(n, d)
				rule := krum.NewKrum((n - 3) / 2)
				dst := make([]float64, d)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rule.Aggregate(dst, vs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n*n*d), "n2d")
			})
		}
	}
}

// BenchmarkRules compares every aggregation rule at one operating
// point, including the exponential minimal-diameter rule the paper
// rejects on cost grounds.
func BenchmarkRules(b *testing.B) {
	const n, d, f = 15, 1000, 4
	vs := benchVectors(n, d)
	dst := make([]float64, d)
	rules := map[string]krum.Rule{
		"krum":            krum.NewKrum(f),
		"multikrum":       krum.NewMultiKrum(f, n-f),
		"average":         krum.Average{},
		"medoid":          krum.Medoid{},
		"coordmedian":     krum.CoordMedian{},
		"trimmedmean":     krum.TrimmedMean{Trim: f},
		"geomedian":       krum.GeoMedian{},
		"minimaldiameter": krum.NewMinimalDiameter(f),
		"bulyan":          krum.NewBulyan(3), // n = 15 ≥ 4·3+3
		"clippedmean":     krum.ClippedMean{},
	}
	for _, name := range []string{"krum", "multikrum", "average", "medoid", "coordmedian", "trimmedmean", "geomedian", "minimaldiameter", "bulyan", "clippedmean"} {
		rule := rules[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := rule.Aggregate(dst, vs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBulyanMemoized measures the memoized Bulyan at the
// iterated-Krum stress point (n = 40, d = 10000, θ = 31): the selection
// phase builds ONE distance matrix and masks winners out of it, so the
// cost is Θ(n²·d + θ·n²) instead of the seed's Θ(θ·n²·d). See
// BenchmarkBulyanSelectSeedReference in internal/core for the
// pool-rebuilding baseline it replaces (~10× slower at this point).
func BenchmarkBulyanMemoized(b *testing.B) {
	const n, d = 40, 10000
	f := (n - 3) / 4
	vs := benchVectors(n, d)
	dst := make([]float64, d)
	rule := krum.NewBulyan(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rule.Aggregate(dst, vs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n-2*f), "theta")
}

// BenchmarkDistanceMatrix contrasts the distance-matrix kernels at the
// Lemma 4.1 stress point (n = 40, d = 10000): the seed's per-pair
// subtract-square loop ("naive") against the blocked Gram-trick kernel
// (SSE2 2×4 tiles on amd64). The blocked/naive ratio is the tracked
// speedup (≥3× on amd64).
func BenchmarkDistanceMatrix(b *testing.B) {
	const n, d = 40, 10000
	vs := benchVectors(n, d)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrixNaive(vs)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrix(vs)
		}
	})
	// Per-kernel-tier variants of the blocked build (the "blocked"
	// subtest above runs whatever tier the process auto-selected; these
	// pin each tier explicitly so the trajectory records the per-ISA
	// spread — the avx2/sse2 ratio is the tentpole speedup).
	for _, kt := range vec.AvailableTiers() {
		b.Run("blocked-"+kt.String(), func(b *testing.B) {
			restore, err := vec.SetKernelTier(kt)
			if err != nil {
				b.Skip(err)
			}
			defer restore()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vec.NewDistanceMatrix(vs)
			}
		})
	}
}

// BenchmarkDistanceMatrixIncremental measures the cross-round
// incremental path at the same stress point: UpdateRows over change
// sets of c ∈ {1, 2, 4, 10} proposals (2.5%–25% of n) against the
// full blocked rebuild every round ("full-rebuild"). Steady-state cost
// is Θ(c·n·d) vs Θ(n²·d), so small change-sets win by n/(2c)-ish;
// the recorded full-rebuild/changed ratios are the tracked numbers.
func BenchmarkDistanceMatrixIncremental(b *testing.B) {
	const n, d = 40, 10000
	vs := benchVectors(n, d)
	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NewDistanceMatrix(vs)
		}
	})
	for _, c := range []int{1, 2, 4, 10} {
		b.Run(fmt.Sprintf("changed=%d", c), func(b *testing.B) {
			m := vec.NewDistanceMatrix(vs)
			// Two alternating variants of the changed rows, so every
			// iteration installs genuinely different vectors.
			variants := [2][][]float64{benchVectors(n, d), benchVectors(n, d)}
			changed := make([]int, c)
			for k := range changed {
				changed[k] = (k * 7) % n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.UpdateRows(changed, variants[i%2])
			}
			b.ReportMetric(float64(c)/float64(n), "changed-frac")
		})
	}
}

// BenchmarkRunIncrementalAsync measures the bounded-staleness mode's
// steady-state economics at the Lemma 4.1 stress point (n = 40,
// d = 10000): a round stream driven by a bernoulli(p=0.25,tau=8)
// arrival trace, with each round's distance work done either as a full
// blocked rebuild or through the cross-round incremental cache (one
// round-0 build, then UpdateRows over each round's arrival set). Both
// arms walk the identical proposal history, so the
// full-rebuild/incremental ns/op ratio is the tracked async cache win
// (acceptance: ≥ 2× under this traffic).
func BenchmarkRunIncrementalAsync(b *testing.B) {
	const n, d, rounds = 40, 10000, 32
	proc, err := krum.ParseArrival("bernoulli(p=0.25,tau=8)")
	if err != nil {
		b.Fatal(err)
	}
	trace := proc.NewTrace(benchSeed, n)
	rng := vec.NewRNG(benchSeed)

	// Proposal history: states[r] holds the full n-vector state after
	// round r's arrivals installed fresh proposals; unchanged rows share
	// their backing arrays with the previous round.
	states := make([][][]float64, rounds)
	changed := make([][]int, rounds)
	states[0] = benchVectors(n, d)
	changed[0] = trace.Next()
	totalChanged := 0
	for r := 1; r < rounds; r++ {
		arrivals := trace.Next()
		states[r] = make([][]float64, n)
		copy(states[r], states[r-1])
		for _, i := range arrivals {
			states[r][i] = rng.NewNormal(d, 0, 1)
		}
		changed[r] = arrivals
		totalChanged += len(arrivals)
	}
	frac := float64(totalChanged) / float64((rounds-1)*n)

	b.Run("full-rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				vec.NewDistanceMatrix(states[r])
			}
		}
		b.ReportMetric(frac, "changed-frac")
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := vec.NewDistanceMatrix(states[0])
			for r := 1; r < rounds; r++ {
				m.UpdateRows(changed[r], states[r])
			}
		}
		b.ReportMetric(frac, "changed-frac")
	})
}

// BenchmarkScenarioMatrixRunner measures scenario-matrix throughput on
// the concurrent runner — cells/sec over a 12-cell (rules × attacks ×
// seeds) grid of short training runs. This is the tracked metric for
// the many-concurrent-experiments serving path (`make bench`).
func BenchmarkScenarioMatrixRunner(b *testing.B) {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    20,
			BatchSize: 8,
			Seed:      benchSeed,
		},
		Rules:   []string{"krum", "average", "multikrum(m=5)"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
		Seeds:   []uint64{1, 2},
	}
	cells := m.Size()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&scenario.Runner{}).Run(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSyntheticMNISTSample measures one worker draw from the
// synthetic MNIST stream (tracked by `make bench`): size 10 is the
// figure-grid workload, size 16 the paper-scale one. Sampling is most
// of a figure-grid cell's time.
func BenchmarkSyntheticMNISTSample(b *testing.B) {
	for _, size := range []int{10, 16} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			w, err := workload.Parse(workload.SpecContext{Seed: benchSeed}, fmt.Sprintf("mnist(size=%d)", size))
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, w.Dataset.Dim())
			y := make([]float64, w.Dataset.OutDim())
			rng := vec.NewRNG(benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Dataset.Sample(rng, x, y)
			}
		})
	}
}

// BenchmarkMLPGradient measures one worker's mini-batch gradient
// (tracked by `make bench`) at the figure-grid shape (mnist size 10,
// 16 hidden units, batch 16) and the paper-scale shape (size 16, 48
// hidden units, batch 4).
func BenchmarkMLPGradient(b *testing.B) {
	for _, c := range []struct {
		spec  string
		batch int
	}{{"mnist(size=10,hidden=16)", 16}, {"mnist(size=16,hidden=48)", 4}} {
		b.Run(fmt.Sprintf("%s/batch=%d", c.spec, c.batch), func(b *testing.B) {
			w, err := workload.Parse(workload.SpecContext{Seed: benchSeed}, c.spec)
			if err != nil {
				b.Fatal(err)
			}
			m := w.Model.Clone()
			x, y, err := data.NewBatch(w.Dataset, vec.NewRNG(benchSeed), c.batch)
			if err != nil {
				b.Fatal(err)
			}
			grad := make([]float64, m.Dim())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Gradient(grad, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerWithStore measures the content-addressed result
// store's warm-vs-cold economics on the BenchmarkScenarioMatrixRunner
// grid (tracked by `make bench`): "cold" runs the matrix into a fresh
// in-memory store every iteration (training + write-through), "warm"
// re-runs it against a pre-populated store, where every cell is a hit
// and no training or distance-matrix work happens. The cold/warm ratio
// is the speedup a repeated grid enjoys; warm ns/op is the pure
// store-serving overhead (hashing + decode).
func BenchmarkRunnerWithStore(b *testing.B) {
	m := scenario.Matrix{
		Base: scenario.Spec{
			Workload:  "gmm(k=3,dim=6,radius=4,sigma=0.5)",
			Rule:      "krum",
			Schedule:  "inverset(gamma=0.5,power=0.75,t0=50)",
			N:         9,
			F:         2,
			Rounds:    20,
			BatchSize: 8,
			Seed:      benchSeed,
		},
		Rules:   []string{"krum", "average", "multikrum(m=5)"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
		Seeds:   []uint64{1, 2},
	}
	cells := m.Size()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := store.NewMemory()
			if _, err := (&scenario.Runner{Store: st}).Run(m); err != nil {
				b.Fatal(err)
			}
			if got := st.Stats().Saves; got != cells {
				b.Fatalf("cold run saved %d cells, want %d", got, cells)
			}
		}
		b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
	})

	b.Run("warm", func(b *testing.B) {
		st := store.NewMemory()
		if _, err := (&scenario.Runner{Store: st}).Run(m); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := (&scenario.Runner{Store: st}).Run(m)
			if err != nil {
				b.Fatal(err)
			}
			for j := range results {
				if !results[j].Cached {
					b.Fatalf("cell %d missed the warm store", j)
				}
			}
		}
		b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
	})
}

// BenchmarkResilienceVerifier measures the Definition 3.2 Monte-Carlo
// verifier throughput.
func BenchmarkResilienceVerifier(b *testing.B) {
	g := make([]float64, 10)
	vec.Fill(g, 1)
	for i := 0; i < b.N; i++ {
		if _, err := krum.VerifyResilience(krum.ResilienceConfig{
			Rule: krum.NewKrum(3), N: 15, F: 3, Gradient: g, Sigma: 0.05,
			Trials: 200, Seed: benchSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkAblationHiddenCoordinate regenerates the E6 extension table.
func BenchmarkAblationHiddenCoordinate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunAblation(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if r := res.Row("bulyan"); r != nil {
			b.ReportMetric(r.CoordError, "bulyan-coord-err")
		}
		if r := res.Row("average"); r != nil {
			b.ReportMetric(r.CoordError, "avg-coord-err")
		}
	}
}

// BenchmarkNonIID regenerates the E7 extension table (the i.i.d.
// assumption stress test).
func BenchmarkNonIID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunNonIID(io.Discard, harness.Quick, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if r := res.Row("krum"); r != nil {
			b.ReportMetric(r.Gap, "krum-skew-gap")
		}
		if r := res.Row("average"); r != nil {
			b.ReportMetric(r.Gap, "avg-skew-gap")
		}
	}
}

// --- Large-n tier -----------------------------------------------------

// largeNTiers is the large-n benchmark tier of
// BenchmarkDistanceMatrixLargeN. d shrinks as n grows to keep wall
// clock and the Θ(n²) matrix footprint sane (n = 10000 already needs
// ~800 MB for the distance matrix alone); the 10k point only runs when
// KRUM_LARGE_BENCH is set — use `make bench-large`.
var largeNTiers = []struct {
	n, d  int
	large bool
}{
	{n: 100, d: 1000},
	{n: 1000, d: 1000},
	{n: 10000, d: 128, large: true},
}

// BenchmarkDistanceMatrixLargeN measures the full-matrix build at the
// large-n tier, where the n²/2 pair count rather than the per-pair
// depth d sets Lemma 4.1's Θ(n²·d) bill (contrast the n = 40,
// d = 10⁴ stress point of BenchmarkDistanceMatrix).
func BenchmarkDistanceMatrixLargeN(b *testing.B) {
	for _, tier := range largeNTiers {
		if tier.large && os.Getenv("KRUM_LARGE_BENCH") == "" {
			continue
		}
		n, d := tier.n, tier.d
		vs := benchVectors(n, d)
		b.Run(fmt.Sprintf("n=%d/d=%d/blocked", n, d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vec.NewDistanceMatrix(vs)
			}
		})
	}
}

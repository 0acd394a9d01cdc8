package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"krum"
	"krum/internal/metrics"
	"krum/internal/stats"
	"krum/internal/vec"
)

// Lemma41Point is one (n, d) cell of the cost-scaling experiment.
type Lemma41Point struct {
	// N and D are the worker count and dimension.
	N, D int
	// NanosPerOp is the measured Krum aggregation time.
	NanosPerOp float64
}

// Lemma41Result summarizes experiment E3: measured Krum cost against
// the Lemma 4.1 model time = c·n²·d.
type Lemma41Result struct {
	// Points holds the sweep measurements.
	Points []Lemma41Point
	// R2 is the goodness of the least-squares fit of time against
	// n²·d (1 means the O(n²·d) model explains all variance).
	R2 float64
	// NanosPerN2D is the fitted constant c.
	NanosPerN2D float64
}

// lemma41Rounds is the number of timed batches per (n, d) cell; the
// cell's cost is its fastest batch's.
const lemma41Rounds = 20

// RunLemma41 executes E3: the Krum cost sweep over n and d.
func RunLemma41(w io.Writer, scale Scale, seed uint64) (*Lemma41Result, error) {
	rng := vec.NewRNG(seed)
	var ns, ds []int
	if scale == Full {
		ns = []int{5, 10, 20, 40, 80}
		ds = []int{100, 1000, 10000}
	} else {
		ns = []int{5, 10, 20}
		ds = []int{100, 1000}
	}

	type cell struct {
		n, d    int
		vectors [][]float64
		rule    krum.Rule
		dst     []float64
	}
	var cells []cell
	for _, n := range ns {
		for _, d := range ds {
			vectors := make([][]float64, n)
			for i := range vectors {
				vectors[i] = rng.NewNormal(d, 0, 1)
			}
			cells = append(cells, cell{n: n, d: d, vectors: vectors,
				rule: krum.NewKrum((n - 3) / 2), dst: make([]float64, d)})
		}
	}

	// Each round times one short calibrated batch per cell (≈ 20ms of
	// work per cell over all rounds), and a cell's cost is its fastest
	// batch. Preemption and co-running load only ever add time, and
	// interleaving the cells spreads each one's batches over the whole
	// sweep, so a slow spell inflates one round of every cell rather
	// than every round of a few.
	nanos := make([]float64, len(cells))
	for i := range nanos {
		nanos[i] = math.Inf(1)
	}
	for round := 0; round < lemma41Rounds; round++ {
		for i := range cells {
			c := &cells[i]
			batch, err := stats.NanosPerOp(20*time.Millisecond/lemma41Rounds, 2000, func() error {
				return c.rule.Aggregate(c.dst, c.vectors)
			})
			if err != nil {
				return nil, fmt.Errorf("n=%d d=%d: %w", c.n, c.d, err)
			}
			nanos[i] = math.Min(nanos[i], batch)
		}
	}

	res := &Lemma41Result{}
	var xs, ys []float64
	for i, c := range cells {
		res.Points = append(res.Points, Lemma41Point{N: c.n, D: c.d, NanosPerOp: nanos[i]})
		xs = append(xs, float64(c.n)*float64(c.n)*float64(c.d))
		ys = append(ys, nanos[i])
	}
	_, slope, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("fitting cost model: %w", err)
	}
	res.R2 = r2
	res.NanosPerN2D = slope

	section(w, "E3 / Lemma 4.1 — Krum cost is O(n²·d)")
	tbl := metrics.NewTable("n", "d", "ns/op", "ns/(n²·d)")
	for _, p := range res.Points {
		tbl.AddRowf(p.N, p.D, p.NanosPerOp, p.NanosPerOp/(float64(p.N)*float64(p.N)*float64(p.D)))
	}
	if err := tbl.Render(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\nleast-squares fit time ≈ %.4g ns · n²·d, r² = %.4f\n", res.NanosPerN2D, res.R2)
	return res, nil
}

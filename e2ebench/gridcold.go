package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"krum/scenario"
	"krum/scenario/store"
)

// schedule is the learning-rate schedule of every benchmark cell.
const schedule = "inverset(gamma=0.5,power=0.75,t0=200)"

// gridMatrix is the grid-cold matrix: the shape of
// examples/matrix-only.json over two workloads, four rules and three
// attacks, 24 cells.
func gridMatrix(seed uint64) scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			Rule: "krum", Schedule: schedule,
			N: 15, F: 4, Rounds: 30, BatchSize: 16, Seed: seed,
			EvalEvery: 30, EvalBatch: 300, TrackSelection: true,
		},
		Workloads: []string{"mnist(size=10,hidden=16)", "gmm(k=3,dim=6,radius=4,sigma=0.5)"},
		Rules:     []string{"krum", "multikrum(m=8)", "average", "coordmedian"},
		Attacks:   []string{"none", "gaussian(sigma=200)", "omniscient(scale=20)"},
	}
}

// gridAccFloor is the least mean final accuracy of the grid's Krum and
// Multi-Krum cells. The paper's claim is that these rules keep training
// on course under both attacks. At 30 rounds the two tasks (3 and 10
// classes, chance 0.33 and 0.1) reach a mean of 0.95 or more on every
// seed tried, so falling below the floor means a rule stopped resisting.
const gridAccFloor = 0.8

// isKrumFamily reports whether a rule spec is Krum or Multi-Krum.
func isKrumFamily(rule string) bool {
	return rule == "krum" || strings.HasPrefix(rule, "krum(") || strings.HasPrefix(rule, "multikrum")
}

// cellTiming is one cell's wall time and its executed round count.
type cellTiming struct {
	wall   time.Duration
	rounds int
	full   bool // trained every round (no divergence, no store hit)
}

// timedExecutor wraps scenario.LocalExecutor, the path Runner takes by
// default, and only reads the clock around each cell.
type timedExecutor struct {
	inner scenario.LocalExecutor
	mu    sync.Mutex
	cells []cellTiming
}

func (e *timedExecutor) ExecuteCell(index int, cell scenario.Spec) scenario.CellResult {
	start := time.Now()
	cr := e.inner.ExecuteCell(index, cell)
	wall := time.Since(start)
	ct := cellTiming{wall: wall}
	if cr.Result != nil {
		ct.rounds = len(cr.Result.History)
		ct.full = !cr.Result.Diverged && !cr.Cached && ct.rounds == cell.Rounds
	}
	e.mu.Lock()
	e.cells = append(e.cells, ct)
	e.mu.Unlock()
	return cr
}

// gridRep is one cold run of the matrix with a fresh store.
type gridRep struct {
	wall   time.Duration
	rounds int
	digest string
	acc    []float64
	cells  []cellTiming
	stats  store.Stats
}

func runGridRep(m scenario.Matrix, tr *tracer) (*gridRep, error) {
	st := store.NewMemory()
	r := scenario.Runner{Workers: runtime.NumCPU(), Store: st}
	var timed *timedExecutor
	if tr != nil {
		r.Executor = tracedExecutor{st: st, t: tr}
	} else {
		timed = &timedExecutor{inner: scenario.LocalExecutor{Store: st}}
		r.Executor = timed
	}
	start := time.Now()
	results, err := r.Run(m)
	rep := &gridRep{wall: time.Since(start), stats: st.Stats()}
	var errs []error
	if err != nil {
		errs = append(errs, err)
	}
	var d digest
	for _, cr := range results {
		if cr.Result == nil {
			continue
		}
		if cr.Cached {
			errs = append(errs, fmt.Errorf("cell %d (%s) was served from a fresh store", cr.Index, cr.Spec.Label()))
		}
		if err := d.add(cr.Result); err != nil {
			errs = append(errs, err)
		}
		rep.rounds += len(cr.Result.History)
		if isKrumFamily(cr.Spec.Rule) {
			if cr.Result.Diverged {
				errs = append(errs, fmt.Errorf("cell %d (%s) diverged at round %d", cr.Index, cr.Spec.Label(), cr.Result.DivergedRound))
			}
			rep.acc = append(rep.acc, cr.Result.FinalTestAccuracy)
		}
	}
	rep.digest = d.String()
	if timed != nil {
		rep.cells = timed.cells
	}
	return rep, errors.Join(errs...)
}

func runGridCold(o options) (*result, error) {
	res := newResult()
	var setups []float64
	var m scenario.Matrix
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		m = gridMatrix(o.seed)
		if err := m.Validate(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.values["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)
	nCells := m.Size()

	var plain, traced []*gridRep
	var digests []string
	var st store.Stats
	tr := newTracer()
	counters, err := repeat(o, func(useTrace bool) error {
		res.attempted += nCells
		var t *tracer
		if useTrace {
			t = tr
		}
		rep, err := runGridRep(m, t)
		if err != nil {
			return err
		}
		digests = append(digests, rep.digest)
		if useTrace {
			st = addStats(st, rep.stats)
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Correctness: every repetition, traced or not, produced the same
	// bytes, and the Krum-family cells learned.
	if err := sameDigest(digests); err != nil {
		return nil, err
	}
	ref := plain[0]
	acc := mean(ref.acc)
	if !(acc >= gridAccFloor) {
		return nil, fmt.Errorf("final_acc %.4f of the Krum and Multi-Krum cells is below the floor %.2f", acc, gridAccFloor)
	}
	res.digest = ref.digest

	var walls, cellRates, roundRates, roundLat []float64
	plainRounds := 0
	for _, rep := range plain {
		plainRounds += rep.rounds
		walls = append(walls, float64(rep.wall)/1e6)
		cellRates = append(cellRates, float64(nCells)/rep.wall.Seconds())
		roundRates = append(roundRates, float64(rep.rounds)/rep.wall.Seconds())
		for _, c := range rep.cells {
			if c.full {
				roundLat = append(roundLat, float64(c.wall)/1e6/float64(c.rounds))
			}
		}
	}
	res.values["cells_per_s"] = median(cellRates)
	res.values["rounds_per_s"] = median(roundRates)
	res.values["round_p50_ms"] = quantile(roundLat, 0.5)
	res.values["round_p90_ms"] = quantile(roundLat, 0.9)
	res.values["matrix_p50_ms"] = quantile(walls, 0.5)
	res.values["matrix_p90_ms"] = quantile(walls, 0.9)
	res.values["final_acc"] = acc
	for _, k := range []string{"cells_per_s", "rounds_per_s", "matrix_p50_ms", "matrix_p90_ms"} {
		res.samples[k] = len(plain)
	}
	res.samples["round_p50_ms"] = len(roundLat)
	res.samples["round_p90_ms"] = len(roundLat)
	res.samples["final_acc"] = len(ref.acc)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	res.values["peak_rss_mb"] = rss
	res.notes["cells_per_matrix"] = nCells
	res.notes["repetitions"] = len(plain)

	if o.trace {
		var tWalls []float64
		for _, rep := range traced {
			tWalls = append(tWalls, float64(rep.wall)/1e6)
		}
		cells := float64(nCells * len(traced))
		tr.st.metrics(cells, res.values)
		res.values["vec.matrix_builds"] = float64(counters.builds) / cells
		res.values["vec.rows_updated"] = float64(counters.rowUpdates) / cells
		storeMetrics(st, cells, res.values)
		plainCells := float64(nCells * len(plain))
		res.values["runtime.alloc_bytes_per_round"] = float64(counters.allocBytes) / float64(plainRounds)
		res.values["runtime.alloc_bytes_per_cell"] = float64(counters.allocBytes) / plainCells
		res.values["runtime.gc_cycles"] = float64(counters.gcCycles) / plainCells
		res.values["trace.overhead_frac"] = median(tWalls)/median(walls) - 1
		res.notes["traced_repetitions"] = len(traced)
		if err := writeSpans(o, "grid-cold", tr); err != nil {
			return nil, err
		}
		fillLayers(res.values)
	}
	return res, nil
}

// addStats sums the counters of two store snapshots.
func addStats(a, b store.Stats) store.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Saves += b.Saves
	a.FlightWaits += b.FlightWaits
	return a
}

// storeMetrics reports store counters per unit of work.
func storeMetrics(st store.Stats, per float64, into map[string]float64) {
	into["store.hits"] = float64(st.Hits) / per
	into["store.misses"] = float64(st.Misses) / per
	into["store.saves"] = float64(st.Saves) / per
	into["store.flight_waits"] = float64(st.FlightWaits) / per
	if st.Hits+st.Misses > 0 {
		into["store.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
}

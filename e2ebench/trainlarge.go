package main

import (
	"fmt"
	"time"

	"krum/distsgd"
	"krum/scenario"
)

// trainCells are the paper-scale train-large cells: n = 31, f = 7,
// mnist(size=16,hidden=48) (d = 12,826), batch 4. Of each pass's 600
// rounds, 500 are Krum rounds (sync and async), which set the round
// latency's median, and 100 are Bulyan rounds, which set its 90th
// percentile.
func trainCells(seed uint64) []scenario.Spec {
	base := scenario.Spec{
		Workload: "mnist(size=16,hidden=48)", Schedule: schedule,
		N: 31, F: 7, BatchSize: 4, Seed: seed, EvalBatch: 500, TrackSelection: true,
	}
	krum := base
	krum.Rule, krum.Attack, krum.Rounds = "krum", "gaussian(sigma=200)", 250
	bulyan := base
	bulyan.Rule, bulyan.Attack, bulyan.Rounds = "bulyan", "omniscient", 100
	async := krum
	async.Arrival, async.Incremental = "bernoulli(p=0.25,tau=8)", true
	cells := []scenario.Spec{krum, bulyan, async}
	for i := range cells {
		cells[i].EvalEvery = cells[i].Rounds
		cells[i].Name = cells[i].Label()
	}
	return cells
}

// trainAccFloor is the least mean final accuracy of the three cells and
// trainCellFloor the least of any one. The paper claims Krum and Bulyan
// train a 10-class model under f Byzantine workers almost as well as
// averaging without attack. At these round counts seeds 1 to 8 and 201
// to 212 reach a mean of 0.79 to 0.96, with the sync Krum cell at 0.78
// or more; the async cell converges more slowly and ranges from 0.47.
// Chance is 0.1, so a cell under twice that has stopped learning.
const (
	trainAccFloor  = 0.6
	trainCellFloor = 0.2
)

// trainRep is one pass over the three cells.
type trainRep struct {
	wall     time.Duration
	rounds   int
	digest   string
	acc      []float64
	roundLat []float64
}

func runTrainRep(cells []scenario.Spec, tr *tracer) (*trainRep, error) {
	rep := &trainRep{}
	var d digest
	start := time.Now()
	for _, cell := range cells {
		var last time.Time
		onRound := func(distsgd.RoundStats) {
			now := time.Now()
			if !last.IsZero() {
				rep.roundLat = append(rep.roundLat, float64(now.Sub(last))/1e6)
			}
			last = now
		}
		var res *distsgd.Result
		var err error
		if tr != nil {
			sc := tr.scope(traceID(cell))
			var cfg distsgd.Config
			cfg, err = compileTraced(sc, 0, cell)
			if err == nil {
				cfg.OnRound = onRound
				res, err = runTraced(sc, 0, cfg)
			}
		} else {
			var cfg distsgd.Config
			cfg, err = cell.Compile()
			if err == nil {
				cfg.OnRound = onRound
				res, err = distsgd.Run(cfg)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.Label(), err)
		}
		if res.Diverged {
			return nil, fmt.Errorf("cell %s diverged at round %d", cell.Label(), res.DivergedRound)
		}
		if res.FinalTestAccuracy < trainCellFloor {
			return nil, fmt.Errorf("cell %s: final accuracy %.4f is below the floor %.2f", cell.Label(), res.FinalTestAccuracy, trainCellFloor)
		}
		if err := d.add(res); err != nil {
			return nil, err
		}
		rep.rounds += len(res.History)
		rep.acc = append(rep.acc, res.FinalTestAccuracy)
	}
	rep.wall = time.Since(start)
	rep.digest = d.String()
	return rep, nil
}

func runTrainLarge(o options) (*result, error) {
	res := newResult()
	var setups []float64
	var cells []scenario.Spec
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		cells = trainCells(o.seed)
		for _, c := range cells {
			if _, err := c.Compile(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.values["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	var plain, traced []*trainRep
	var digests []string
	tr := newTracer()
	counters, err := repeat(o, func(useTrace bool) error {
		res.attempted += len(cells)
		var t *tracer
		if useTrace {
			t = tr
		}
		rep, err := runTrainRep(cells, t)
		if err != nil {
			return err
		}
		digests = append(digests, rep.digest)
		if useTrace {
			traced = append(traced, rep)
		} else {
			plain = append(plain, rep)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := sameDigest(digests); err != nil {
		return nil, err
	}
	ref := plain[0]
	acc := mean(ref.acc)
	if !(acc >= trainAccFloor) {
		return nil, fmt.Errorf("final_acc %.4f is below the floor %.2f", acc, trainAccFloor)
	}
	res.digest = ref.digest

	var walls, cellRates, roundRates, roundLat []float64
	plainRounds := 0
	for _, rep := range plain {
		plainRounds += rep.rounds
		walls = append(walls, float64(rep.wall)/1e6)
		cellRates = append(cellRates, float64(len(cells))/rep.wall.Seconds())
		roundRates = append(roundRates, float64(rep.rounds)/rep.wall.Seconds())
		roundLat = append(roundLat, rep.roundLat...)
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
	res.notes["repetitions"] = len(plain)
	res.notes["cell_acc"] = ref.acc

	if o.trace {
		var tRound []float64
		for _, rep := range traced {
			tRound = append(tRound, rep.wall.Seconds()/float64(rep.rounds))
		}
		var pRound []float64
		for _, rep := range plain {
			pRound = append(pRound, rep.wall.Seconds()/float64(rep.rounds))
		}
		rounds := float64(traced[0].rounds * len(traced))
		tr.st.metrics(rounds, res.values)
		res.values["vec.matrix_builds"] = float64(counters.builds) / rounds
		res.values["vec.rows_updated"] = float64(counters.rowUpdates) / rounds
		res.values["runtime.alloc_bytes_per_round"] = float64(counters.allocBytes) / float64(plainRounds)
		res.values["runtime.alloc_bytes_per_cell"] = float64(counters.allocBytes) / float64(len(cells)*len(plain))
		res.values["runtime.gc_cycles"] = float64(counters.gcCycles) / float64(plainRounds)
		res.values["trace.overhead_frac"] = median(tRound)/median(pRound) - 1
		res.notes["traced_repetitions"] = len(traced)
		if err := writeSpans(o, "train-large", tr); err != nil {
			return nil, err
		}
		fillLayers(res.values)
	}
	return res, nil
}

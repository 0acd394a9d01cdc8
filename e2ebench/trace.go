package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"krum/attack"
	"krum/data"
	"krum/distsgd"
	"krum/internal/core"
	"krum/internal/vec"
	"krum/model"
	"krum/scenario"
	"krum/scenario/store"
)

// The traced run puts a transparent wrapper at each layer boundary the
// program exposes (data.Dataset, model.Model, attack.Strategy,
// core.Rule, scenario.CellExecutor, distsgd.Config.OnRound) and times
// the calls from the benchmark's own code. Fine-grained calls (one
// Sample per training example, one Gradient per worker per round) only
// feed counters; every coarser boundary also records a span.

// layerStats accumulates busy time (ns) and call counts per layer.
// Worker-pool goroutines and concurrent cells update it, so every field
// is atomic.
type layerStats struct {
	sampleNS, samples         atomic.Int64
	gradNS, gradCalls         atomic.Int64
	evalNS                    atomic.Int64
	gradientsNS               atomic.Int64
	attackNS, attackCalls     atomic.Int64
	distNS, aggNS, selNS      atomic.Int64
	roundNS, otherNS, rounds  atomic.Int64
	buildNS                   atomic.Int64
	cellNS, cells, overheadNS atomic.Int64
	httpSubmitNS, httpFirstNS atomic.Int64
}

// span is one timed interval of a trace. Times are nanoseconds since
// the tracer's epoch; Self is filled in when the spans are written.
type span struct {
	Trace  string `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// maxTraces bounds how many traces keep their spans in memory; the
// counters in layerStats cover every trace regardless.
const maxTraces = 64

// tracer holds the in-memory span buffer and the layer counters of one
// traced run.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	st     layerStats
	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// scope opens a trace; its spans are kept only while fewer than
// maxTraces traces have been kept.
func (t *tracer) scope(id string) *scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.traces < maxTraces
	if keep {
		t.traces++
	}
	return &scope{t: t, trace: id, keep: keep}
}

// scope is one trace: a cell (keyed by its store.Key) or a matrix
// (keyed by its scenariod id).
type scope struct {
	t     *tracer
	trace string
	keep  bool
}

func (s *scope) span(name string, id, parent uint64, start, end int64) {
	if !s.keep {
		return
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Trace: s.trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	s.t.mu.Unlock()
}

// write stores every kept span as one JSON line, with its self time:
// its duration minus the union of its children's intervals.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of the spans' intervals,
// clipped to [start, end].
func covered(spans []span, start, end int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := start
	for _, s := range spans {
		lo, hi := max(s.Start, cur), min(s.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// runTrace follows one distsgd.Run call. Round boundaries come from
// OnRound; a round starts at the first worker SetParams after the
// previous boundary, and its gradient phase lasts until the first
// attack or rule call.
type runTrace struct {
	sc    *scope
	st    *layerStats
	runID uint64

	between    atomic.Bool
	roundStart atomic.Int64

	// Fields below are touched only by the goroutine running the round
	// loop (attack, rule, evaluation and OnRound all run there).
	roundID uint64
	first   int64
	phases  int64
}

func newRunTrace(sc *scope, runID uint64) *runTrace {
	rt := &runTrace{sc: sc, st: &sc.t.st, runID: runID, roundID: sc.t.newID()}
	rt.between.Store(true)
	return rt
}

func (rt *runTrace) now() int64 { return rt.sc.t.now() }

// roundBegin is called by every worker SetParams; only the first one
// after a boundary marks the round start.
func (rt *runTrace) roundBegin() {
	if rt.between.CompareAndSwap(true, false) {
		rt.roundStart.Store(rt.now())
	}
}

// phase records a main-goroutine phase of the current round.
func (rt *runTrace) phase(name string, counter *atomic.Int64, start, end int64) {
	if rt.first == 0 {
		rt.first = start
	}
	rt.phases += end - start
	counter.Add(end - start)
	rt.sc.span(name, rt.sc.t.newID(), rt.roundID, start, end)
}

// roundEnd closes the current round at an OnRound boundary.
func (rt *runTrace) roundEnd() {
	end := rt.now()
	start := rt.roundStart.Load()
	first := rt.first
	if first == 0 {
		first = end
	}
	grads := first - start
	rt.sc.span("sim.gradients", rt.sc.t.newID(), rt.roundID, start, first)
	rt.sc.span("distsgd.round", rt.roundID, rt.runID, start, end)
	rt.st.gradientsNS.Add(grads)
	rt.st.roundNS.Add(end - start)
	rt.st.otherNS.Add(end - start - grads - rt.phases)
	rt.st.rounds.Add(1)
	rt.roundID, rt.first, rt.phases = rt.sc.t.newID(), 0, 0
	rt.between.Store(true)
}

// tracedDataset times every Sample call.
type tracedDataset struct {
	inner data.Dataset
	rt    *runTrace
}

func (d tracedDataset) Dim() int    { return d.inner.Dim() }
func (d tracedDataset) OutDim() int { return d.inner.OutDim() }
func (d tracedDataset) Sample(rng *vec.RNG, x, y []float64) {
	t0 := time.Now()
	d.inner.Sample(rng, x, y)
	d.rt.st.sampleNS.Add(int64(time.Since(t0)))
	d.rt.st.samples.Add(1)
}

// tracedModel times gradients and evaluation. Clone returns a wrapped
// clone, because distsgd.Run and sim.NewPool clone the model for the
// server and for every worker.
type tracedModel struct {
	inner model.Model
	rt    *runTrace
}

func (m tracedModel) Dim() int                       { return m.inner.Dim() }
func (m tracedModel) Params(dst []float64) []float64 { return m.inner.Params(dst) }
func (m tracedModel) Clone() model.Model             { return tracedModel{inner: m.inner.Clone(), rt: m.rt} }

func (m tracedModel) SetParams(p []float64) error {
	m.rt.roundBegin()
	return m.inner.SetParams(p)
}

func (m tracedModel) Gradient(dst []float64, x, y *vec.Dense) (float64, error) {
	t0 := time.Now()
	loss, err := m.inner.Gradient(dst, x, y)
	m.rt.st.gradNS.Add(int64(time.Since(t0)))
	m.rt.st.gradCalls.Add(1)
	return loss, err
}

func (m tracedModel) Loss(x, y *vec.Dense) (float64, error) {
	start := m.rt.now()
	loss, err := m.inner.Loss(x, y)
	m.rt.phase("model.eval", &m.rt.st.evalNS, start, m.rt.now())
	return loss, err
}

func (m tracedModel) Predict(x *vec.Dense) (*vec.Dense, error) {
	start := m.rt.now()
	out, err := m.inner.Predict(x)
	m.rt.phase("model.eval", &m.rt.st.evalNS, start, m.rt.now())
	return out, err
}

// tracedAttack times every Propose call.
type tracedAttack struct {
	inner attack.Strategy
	rt    *runTrace
}

func (a tracedAttack) Name() string { return a.inner.Name() }
func (a tracedAttack) Propose(ctx *attack.Context) [][]float64 {
	start := a.rt.now()
	out := a.inner.Propose(ctx)
	a.rt.phase("attack.propose", &a.rt.st.attackNS, start, a.rt.now())
	a.rt.st.attackCalls.Add(1)
	return out
}

// tracedRule is a core.ContextRule around the configured rule. For
// distance-consuming rules (those that select through a RoundContext)
// it first asks the context for the round's distance matrix, which the
// context memoizes, so the rule's own request is then free and the two
// phases are timed apart.
type tracedRule struct {
	inner core.Rule
	rt    *runTrace
	dist  bool
}

func (r *tracedRule) Name() string { return r.inner.Name() }

func (r *tracedRule) Aggregate(dst []float64, vectors [][]float64) error {
	return r.inner.Aggregate(dst, vectors)
}

func (r *tracedRule) distances(ctx *core.RoundContext) int64 {
	start := r.rt.now()
	if r.dist {
		ctx.Distances()
		end := r.rt.now()
		r.rt.phase("vec.distances", &r.rt.st.distNS, start, end)
		return end
	}
	return start
}

func (r *tracedRule) AggregateContext(dst []float64, ctx *core.RoundContext) error {
	start := r.distances(ctx)
	err := core.AggregateContext(r.inner, dst, ctx)
	r.rt.phase("core.aggregate", &r.rt.st.aggNS, start, r.rt.now())
	return err
}

// tracedSelector adds the Selector methods when the inner rule has
// them, so distsgd's TrackSelection sees the same interfaces it would
// see unwrapped.
type tracedSelector struct{ *tracedRule }

func (s tracedSelector) Select(vectors [][]float64) ([]int, error) {
	return s.inner.(core.Selector).Select(vectors)
}

func (s tracedSelector) SelectContext(ctx *core.RoundContext) ([]int, error) {
	start := s.distances(ctx)
	idx, err := core.SelectContext(s.inner.(core.Selector), ctx)
	s.rt.phase("core.select", &s.rt.st.selNS, start, s.rt.now())
	return idx, err
}

func wrapRule(inner core.Rule, rt *runTrace) core.Rule {
	_, dist := inner.(core.ContextSelector)
	r := &tracedRule{inner: inner, rt: rt, dist: dist}
	if _, ok := inner.(core.Selector); ok {
		return tracedSelector{r}
	}
	return r
}

// runTraced runs cfg through distsgd.Run with every layer wrapped. The
// rule and attack specs are constructed exactly as distsgd.Run would
// construct them, then handed over as instances.
func runTraced(sc *scope, parent uint64, cfg distsgd.Config) (*distsgd.Result, error) {
	if cfg.RuleSpec != "" {
		rule, err := core.ParseRuleIn(core.SpecContext{N: cfg.N, F: cfg.F}, cfg.RuleSpec)
		if err != nil {
			return nil, fmt.Errorf("rule spec %q: %w", cfg.RuleSpec, err)
		}
		cfg.Rule, cfg.RuleSpec = rule, ""
	}
	if cfg.AttackSpec != "" {
		atk, err := attack.Parse(cfg.AttackSpec)
		if err != nil {
			return nil, fmt.Errorf("attack spec %q: %w", cfg.AttackSpec, err)
		}
		cfg.Attack, cfg.AttackSpec = atk, ""
	}
	if cfg.Attack == nil {
		cfg.Attack = attack.None{}
	}
	runID := sc.t.newID()
	rt := newRunTrace(sc, runID)
	cfg.Rule = wrapRule(cfg.Rule, rt)
	cfg.Attack = tracedAttack{inner: cfg.Attack, rt: rt}
	cfg.Model = tracedModel{inner: cfg.Model, rt: rt}
	cfg.Dataset = tracedDataset{inner: cfg.Dataset, rt: rt}
	onRound := cfg.OnRound
	cfg.OnRound = func(s distsgd.RoundStats) {
		rt.roundEnd()
		if onRound != nil {
			onRound(s)
		}
	}
	start := sc.t.now()
	res, err := distsgd.Run(cfg)
	sc.span("distsgd.run", runID, parent, start, sc.t.now())
	return res, err
}

// compileTraced times Spec.Compile as the workload layer's build.
func compileTraced(sc *scope, parent uint64, cell scenario.Spec) (distsgd.Config, error) {
	start := sc.t.now()
	cfg, err := cell.Compile()
	end := sc.t.now()
	sc.t.st.buildNS.Add(end - start)
	sc.span("workload.build", sc.t.newID(), parent, start, end)
	return cfg, err
}

// traceID names a cell's trace by its content address.
func traceID(cell scenario.Spec) string {
	key, err := store.Key(cell)
	if err != nil {
		return cell.Label()
	}
	return key
}

// tracedExecutor is a scenario.CellExecutor that takes the same path
// as scenario.LocalExecutor (scenario.RunCellWith around a compute
// function that compiles and trains) with every layer traced. The
// cell's self time, its wall time minus the compute call, is the
// store's overhead.
type tracedExecutor struct {
	st scenario.ResultStore
	t  *tracer
}

func (e tracedExecutor) ExecuteCell(index int, cell scenario.Spec) scenario.CellResult {
	sc := e.t.scope(traceID(cell))
	cellID := e.t.newID()
	start := e.t.now()
	var computeNS int64
	cr := scenario.RunCellWith(e.st, index, cell, func() (*distsgd.Result, error) {
		cs := e.t.now()
		defer func() { computeNS = e.t.now() - cs }()
		cfg, err := compileTraced(sc, cellID, cell)
		if err != nil {
			return nil, err
		}
		return runTraced(sc, cellID, cfg)
	})
	end := e.t.now()
	sc.span("scenario.cell", cellID, 0, start, end)
	e.t.st.cellNS.Add(end - start)
	e.t.st.cells.Add(1)
	e.t.st.overheadNS.Add(end - start - computeNS)
	return cr
}

// metrics reports the traced layer counters per unit of work.
func (st *layerStats) metrics(per float64, into map[string]float64) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / per }
	n := func(c int64) float64 { return float64(c) / per }
	into["data.sample_ms"] = ms(st.sampleNS.Load())
	into["data.samples"] = n(st.samples.Load())
	into["model.grad_ms"] = ms(st.gradNS.Load())
	into["model.grad_calls"] = n(st.gradCalls.Load())
	into["model.eval_ms"] = ms(st.evalNS.Load())
	into["sim.gradients_ms"] = ms(st.gradientsNS.Load())
	into["attack.propose_ms"] = ms(st.attackNS.Load())
	into["attack.calls"] = n(st.attackCalls.Load())
	into["vec.distances_ms"] = ms(st.distNS.Load())
	into["core.aggregate_ms"] = ms(st.aggNS.Load())
	into["core.select_ms"] = ms(st.selNS.Load())
	into["distsgd.round_ms"] = ms(st.roundNS.Load())
	into["distsgd.other_ms"] = ms(st.otherNS.Load())
	into["workload.build_ms"] = ms(st.buildNS.Load())
	into["scenario.cell_ms"] = ms(st.cellNS.Load())
	into["scenario.cells"] = n(st.cells.Load())
	into["store.overhead_ms"] = ms(st.overheadNS.Load())
}

// fillLayers sets every per-layer metric the workload does not cross
// in the benchmark's own process to 0.
func fillLayers(values map[string]float64) {
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			values[d.name] = 0
		}
	}
}

// writeSpans writes the traced run's spans under the scratch directory.
func writeSpans(o options, workload string, tr *tracer) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.out, workload, o.seed)
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

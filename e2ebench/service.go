package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"krum/distsgd"
	"krum/scenario"
)

// serviceSetupRuns is how many times a run starts the service to time
// its set-up; the last start serves the timed phase.
const serviceSetupRuns = 5

// seedsPerHalf is how many seeds each half of a submission carries.
const seedsPerHalf = 2

// serviceMatrix is one service-mixed submission: tiny gmm cells over
// four rules, two attacks and the hit seeds (stored during set-up)
// followed by the submission's fresh seeds, 32 cells with both halves.
// With no fresh seeds it is the set-up matrix of hit cells alone.
func serviceMatrix(hit, fresh []uint64) scenario.Matrix {
	return scenario.Matrix{
		Base: scenario.Spec{
			Workload: "gmm(k=3,dim=6,radius=4,sigma=0.5)", Rule: "krum", Schedule: schedule,
			N: 7, F: 1, Rounds: 10, BatchSize: 8, EvalEvery: 10, EvalBatch: 100,
		},
		Rules:   []string{"krum", "multikrum(m=3)", "average", "coordmedian"},
		Attacks: []string{"none", "gaussian(sigma=200)"},
		Seeds:   append(append([]uint64(nil), hit...), fresh...),
	}
}

// seedRange returns n consecutive seeds starting at first.
func seedRange(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

// hitSeeds derives the hit seeds from the workload seed. Fresh seeds
// count up from the last of them, so the two never meet.
func hitSeeds(seed uint64) []uint64 { return seedRange(seed*1_000_003+1, seedsPerHalf) }

// hitIndex maps a submission's cell index to the set-up matrix's cell
// index, and reports whether the cell is a hit. The seed axis is
// innermost, so each (rule, attack) pair holds its hit seeds first.
func hitIndex(i int) (int, bool) {
	pos := i % (2 * seedsPerHalf)
	return i/(2*seedsPerHalf)*seedsPerHalf + pos, pos < seedsPerHalf
}

// daemon is one krum-scenariod child process.
type daemon struct {
	cmd *exec.Cmd
	log *os.File
}

func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// The kernel kills the daemon if the benchmark dies without
	// reaping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	return &daemon{cmd: cmd, log: log}, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down, kills it if it has not exited
// within five seconds, and reaps it.
func (d *daemon) stop() {
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// service is one coordinator with one joined worker.
type service struct {
	dir           string
	base          string
	coord, worker *daemon
	client        *http.Client
	hitResults    [][]byte // the set-up matrix's results, in cell order
	hitAcc        []float64
}

// startService starts the coordinator and the worker, waits until the
// worker has joined, and stores the hit cells.
func startService(o options, hits []uint64) (s *service, err error) {
	if o.scenariod == "" {
		return nil, errors.New("no krum-scenariod binary given (-scenariod)")
	}
	dir, err := os.MkdirTemp(o.out, "svc-")
	if err != nil {
		return nil, err
	}
	s = &service{dir: dir, client: &http.Client{Timeout: 60 * time.Second}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	port, err := freePort()
	if err != nil {
		return s, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s.base = "http://" + addr
	s.coord, err = startDaemon(o.scenariod, filepath.Join(dir, "coordinator.log"),
		"-addr", addr, "-workers", "1",
		"-store-dir", filepath.Join(dir, "store"), "-journal", filepath.Join(dir, "journal"))
	if err != nil {
		return s, err
	}
	if err := s.waitFor("/healthz", func([]byte) bool { return true }); err != nil {
		return s, err
	}
	s.worker, err = startDaemon(o.scenariod, filepath.Join(dir, "worker.log"),
		"-worker", "-join", s.base, "-workers", "1")
	if err != nil {
		return s, err
	}
	if err := s.waitFor("/fleet", func(b []byte) bool {
		var fleet struct {
			Workers []json.RawMessage `json:"workers"`
		}
		return json.Unmarshal(b, &fleet) == nil && len(fleet.Workers) > 0
	}); err != nil {
		return s, err
	}

	m := serviceMatrix(hits, nil)
	cl := &client{svc: s, http: s.client, tenant: "setup"}
	rec, err := cl.submit(m, nil)
	if err != nil {
		return s, fmt.Errorf("storing the hit cells: %w", err)
	}
	cells := m.Cells()
	s.hitResults = make([][]byte, len(cells))
	for _, line := range rec.lines {
		if line.Cached || line.Error != "" || line.StoreError != "" {
			return s, fmt.Errorf("set-up cell %d: cached=%v error=%q store_error=%q", line.Index, line.Cached, line.Error, line.StoreError)
		}
		s.hitResults[line.Index] = line.Result
	}
	for i, c := range cells {
		if s.hitResults[i] == nil {
			return s, fmt.Errorf("set-up cell %d was never served", i)
		}
		if isKrumFamily(c.Rule) {
			var r distsgd.Result
			if err := json.Unmarshal(s.hitResults[i], &r); err != nil {
				return s, fmt.Errorf("decoding set-up cell %d: %w", i, err)
			}
			s.hitAcc = append(s.hitAcc, r.FinalTestAccuracy)
		}
	}
	return s, nil
}

// close stops the worker and the coordinator, reaps both and removes
// the service's directory.
func (s *service) close() {
	if s.worker != nil {
		s.worker.stop()
	}
	if s.coord != nil {
		s.coord.stop()
	}
	os.RemoveAll(s.dir)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitFor polls a GET endpoint until it answers 200 with a body ok
// accepts, for at most 30 seconds.
func (s *service) waitFor(path string, ok func([]byte) bool) error {
	limit := time.Now().Add(30 * time.Second)
	for {
		body, err := s.get(path)
		if err == nil && ok(body) {
			return nil
		}
		if time.Now().After(limit) {
			return fmt.Errorf("waiting for %s: %v", path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// snapshot is the service's out-of-process state at one instant.
type snapshot struct {
	metrics  map[string]float64 // /metrics samples summed over labels
	store    map[string]float64 // /store counters
	coordCPU float64            // ms
	workCPU  float64            // ms
}

func (s *service) snapshot() (snapshot, error) {
	var snap snapshot
	body, err := s.get("/metrics")
	if err != nil {
		return snap, err
	}
	snap.metrics = parseMetrics(body)
	body, err = s.get("/store")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap.store); err != nil {
		return snap, fmt.Errorf("decoding /store: %w", err)
	}
	if snap.coordCPU, err = procCPUms(s.coord.pid()); err != nil {
		return snap, err
	}
	if snap.workCPU, err = procCPUms(s.worker.pid()); err != nil {
		return snap, err
	}
	return snap, nil
}

// parseMetrics sums the Prometheus text exposition's samples by metric
// name.
func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// cellLine is one NDJSON line of /matrices/{id}/stream.
type cellLine struct {
	Index      int             `json:"index"`
	Cached     bool            `json:"cached"`
	Error      string          `json:"error"`
	StoreError string          `json:"store_error"`
	Result     json.RawMessage `json:"result"`
}

// matrixRecord is one submission as a client saw it.
type matrixRecord struct {
	id            string
	matrix        scenario.Matrix
	start         time.Time
	submit, first time.Duration // POST answered; first stream line
	latency       time.Duration // POST sent to last stream line
	lines         []cellLine    // dropped once checked
	fresh         []freshCell
}

// streamTick is the interval at which krum-scenariod's stream handler
// looks for newly finished cells, counted from when the GET arrives.
const streamTick = 25 * time.Millisecond

// client is one closed-loop tenant holding one keep-alive connection.
//
// Because the stream handler only notices a finished matrix on its
// tick, a client that opened the stream at a fixed offset after the
// POST would see latencies pinned to multiples of the tick, and their
// percentiles would jump by a whole tick between runs. The client
// therefore opens the stream after a think time drawn uniformly from
// [0, streamTick), which spreads the end of the stream evenly over the
// tick.
type client struct {
	svc    *service
	http   *http.Client
	tenant string
	think  *rand.Rand // nil: open the stream at once
}

func newClient(s *service, tenant string, seed uint64) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		svc:    s,
		http:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tenant: tenant,
		think:  rand.New(rand.NewPCG(seed, uint64(len(tenant))<<32|uint64(tenant[0]))),
	}
}

// submit POSTs the matrix and reads its stream to the last line. Any
// refused (429) or failed request is an error.
func (c *client) submit(m scenario.Matrix, tr *tracer) (*matrixRecord, error) {
	body, err := json.Marshal(struct {
		scenario.Matrix
		Tenant string `json:"tenant"`
	}{m, c.tenant})
	if err != nil {
		return nil, err
	}
	rec := &matrixRecord{matrix: m, start: time.Now()}
	resp, err := c.http.Post(c.svc.base+"/matrices", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, fmt.Errorf("POST /matrices: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submit = time.Since(rec.start)
	if err != nil {
		return rec, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return rec, fmt.Errorf("POST /matrices: %s: %s", resp.Status, reply)
	}
	var sub struct {
		ID        string `json:"id"`
		StreamURL string `json:"stream_url"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		return rec, fmt.Errorf("decoding submission reply: %w", err)
	}
	rec.id = sub.ID
	if c.think != nil {
		time.Sleep(time.Duration(c.think.Int64N(int64(streamTick))))
	}
	streamStart := time.Now()
	if err := c.stream(rec); err != nil {
		return rec, err
	}
	if err := c.evict(rec.id); err != nil {
		return rec, err
	}
	if tr != nil {
		sc := tr.scope(sub.ID)
		root := tr.newID()
		t0 := int64(rec.start.Sub(tr.epoch))
		sc.span("scenariod.submit", tr.newID(), root, t0, t0+int64(rec.submit))
		sc.span("scenariod.first_cell", tr.newID(), root, t0, t0+int64(rec.first))
		sc.span("scenariod.stream", tr.newID(), root, int64(streamStart.Sub(tr.epoch)), t0+int64(rec.latency))
		sc.span("scenariod.matrix", root, 0, t0, t0+int64(rec.latency))
		tr.st.httpSubmitNS.Add(int64(rec.submit))
		tr.st.httpFirstNS.Add(int64(rec.first))
	}
	return rec, nil
}

// stream reads the matrix's NDJSON stream to its last line.
func (c *client) stream(rec *matrixRecord) error {
	resp, err := c.http.Get(c.svc.base + "/matrices/" + rec.id + "/stream")
	if err != nil {
		return fmt.Errorf("GET stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last time.Time
	for sc.Scan() {
		last = time.Now()
		if len(rec.lines) == 0 {
			rec.first = last.Sub(rec.start)
		}
		var line cellLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("decoding stream line: %w", err)
		}
		rec.lines = append(rec.lines, line)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stream: %w", err)
	}
	rec.latency = last.Sub(rec.start)
	return nil
}

// evict deletes the finished matrix, after its latency was taken, so
// the coordinator holds only live matrices and its memory and
// per-submission work do not grow with the length of the run.
func (c *client) evict(id string) error {
	req, err := http.NewRequest(http.MethodDelete, c.svc.base+"/matrices/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("DELETE matrix: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("DELETE matrix: %w", err)
	}
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE matrix %s: %s", id, resp.Status)
	}
	return nil
}

// phase is one timed stretch of the closed loop.
type phase struct {
	traced  bool
	wall    time.Duration
	records []*matrixRecord
	before  snapshot
	after   snapshot
}

// runPhase runs both tenants' closed loops until the deadline and
// waits for their last matrices.
func runPhase(s *service, clients []*client, seeds *atomic.Uint64, hits []uint64, until time.Time, tr *tracer) (*phase, error) {
	ph := &phase{traced: tr != nil}
	var err error
	if ph.before, err = s.snapshot(); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(until) {
				fresh := seedRange(seeds.Add(seedsPerHalf)-seedsPerHalf+1, seedsPerHalf)
				rec, err := c.submit(serviceMatrix(hits, fresh), tr)
				if err == nil {
					err = s.check(rec)
				}
				mu.Lock()
				if rec != nil {
					ph.records = append(ph.records, rec)
				}
				if err != nil {
					errs = append(errs, fmt.Errorf("tenant %s: %w", c.tenant, err))
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	if ph.after, err = s.snapshot(); err != nil {
		return nil, err
	}
	return ph, errors.Join(errs...)
}

// freshCell is a fresh cell's spec and the hash of the bytes the
// service served for it.
type freshCell struct {
	spec   scenario.Spec
	served [sha256.Size]byte
}

// check verifies one matrix as soon as its stream ends: every cell
// arrived without a cell or store error; the hit half, and only it, was
// served from the store with the set-up's bytes. It keeps the fresh
// half's specs and byte hashes for the in-process comparison and drops
// the lines.
func (s *service) check(rec *matrixRecord) error {
	cells := rec.matrix.Cells()
	if len(rec.lines) != len(cells) {
		return fmt.Errorf("matrix %s: stream ended after %d of %d cells", rec.id, len(rec.lines), len(cells))
	}
	cached := 0
	for _, line := range rec.lines {
		if line.Error != "" || line.StoreError != "" {
			return fmt.Errorf("matrix %s cell %d: error=%q store_error=%q", rec.id, line.Index, line.Error, line.StoreError)
		}
		if line.Cached {
			cached++
		}
		if j, hit := hitIndex(line.Index); hit {
			if !line.Cached || !bytes.Equal(line.Result, s.hitResults[j]) {
				return fmt.Errorf("matrix %s cell %d: hit cell not served from the store with the set-up bytes", rec.id, line.Index)
			}
			continue
		}
		var served bytes.Buffer
		if err := json.Compact(&served, line.Result); err != nil {
			return fmt.Errorf("matrix %s cell %d: %w", rec.id, line.Index, err)
		}
		rec.fresh = append(rec.fresh, freshCell{spec: cells[line.Index], served: sha256.Sum256(served.Bytes())})
	}
	if want := len(s.hitResults); cached != want {
		return fmt.Errorf("matrix %s: %d cached cells, want the %d stored during set-up", rec.id, cached, want)
	}
	rec.lines = nil
	return nil
}

func runServiceMixed(o options) (*result, error) {
	res := newResult()
	hits := hitSeeds(o.seed)

	// Set-up: several full starts; the last one serves the timed phase.
	var setups []float64
	var svc *service
	for i := 0; i < serviceSetupRuns; i++ {
		start := time.Now()
		s, err := startService(o, hits)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serviceSetupRuns-1 {
			s.close()
			continue
		}
		svc = s
	}
	defer svc.close()
	res.values["setup_s"] = median(setups)
	res.samples["setup_s"] = len(setups)

	clients := []*client{newClient(svc, "a", o.seed), newClient(svc, "b", o.seed)}
	var seeds atomic.Uint64
	seeds.Store(hits[len(hits)-1])
	tr := newTracer()
	nPhases := 1
	if o.trace {
		nPhases = 4
	}
	var phases []*phase
	per := time.Duration(o.seconds * float64(time.Second) / float64(nPhases))
	for i := 0; i < nPhases; i++ {
		var ptr *tracer
		if o.trace && i%2 == 1 {
			ptr = tr
		}
		ph, err := runPhase(svc, clients, &seeds, hits, time.Now().Add(per), ptr)
		if ph != nil {
			phases = append(phases, ph)
		}
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", i, err)
		}
	}

	coordRSS, err := procStatusMiB(strconv.Itoa(svc.coord.pid()), "VmHWM")
	if err != nil {
		return nil, err
	}
	workerRSS, err := procStatusMiB(strconv.Itoa(svc.worker.pid()), "VmHWM")
	if err != nil {
		return nil, err
	}

	// Every matrix passed check as it arrived; what is left is its
	// fresh half against an in-process run.
	nCells := serviceMatrix(hits, hits).Size()
	var fresh []freshCell
	for _, ph := range phases {
		for _, rec := range ph.records {
			res.attempted += nCells
			fresh = append(fresh, rec.fresh...)
		}
	}
	freshRounds, freshAcc, err := verifyFresh(fresh)
	if err != nil {
		return nil, err
	}
	var d digest
	for _, b := range svc.hitResults {
		d.addBytes(b)
	}
	res.digest = d.String()

	// Metrics from the untraced phases.
	var lat, roundLat, tLat []float64
	var wall time.Duration
	var cells, rounds int
	fi := 0
	for _, ph := range phases {
		for _, rec := range ph.records {
			r := 0
			for range nCells / 2 {
				r += freshRounds[fi]
				fi++
			}
			ms := float64(rec.latency) / 1e6
			if ph.traced {
				tLat = append(tLat, ms)
				continue
			}
			lat = append(lat, ms)
			roundLat = append(roundLat, ms/float64(r))
			cells += nCells
			rounds += r
		}
		if !ph.traced {
			wall += ph.wall
		}
	}
	acc := append(append([]float64(nil), svc.hitAcc...), freshAcc...)
	res.values["cells_per_s"] = float64(cells) / wall.Seconds()
	res.values["rounds_per_s"] = float64(rounds) / wall.Seconds()
	res.values["round_p50_ms"] = quantile(roundLat, 0.5)
	res.values["round_p90_ms"] = quantile(roundLat, 0.9)
	res.values["matrix_p50_ms"] = quantile(lat, 0.5)
	res.values["matrix_p90_ms"] = quantile(lat, 0.9)
	res.values["final_acc"] = mean(acc)
	for _, k := range []string{"round_p50_ms", "round_p90_ms", "matrix_p50_ms", "matrix_p90_ms"} {
		res.samples[k] = len(lat)
	}
	res.samples["final_acc"] = len(acc)
	selfRSS, err := peakRSS()
	if err != nil {
		return nil, err
	}
	res.values["peak_rss_mb"] = selfRSS + coordRSS + workerRSS

	// Out-of-process accounting, untraced and traced phases apart.
	var plainAcc, tracedAcc accounting
	for _, ph := range phases {
		if ph.traced {
			tracedAcc.add(ph)
		} else {
			plainAcc.add(ph)
		}
	}
	res.notes["coordinator_vmhwm_mb"] = coordRSS
	res.notes["worker_vmhwm_mb"] = workerRSS
	res.notes["benchmark_vmhwm_mb"] = selfRSS
	res.notes["untraced"] = plainAcc.perMatrix()
	res.notes["matrices"] = len(lat)

	if o.trace {
		per := float64(tracedAcc.matrices)
		res.values["scenariod.submit_ms"] = float64(tr.st.httpSubmitNS.Load()) / 1e6 / per
		res.values["scenariod.first_cell_ms"] = float64(tr.st.httpFirstNS.Load()) / 1e6 / per
		for k, v := range tracedAcc.perMatrix() {
			res.values[k] = v
		}
		res.values["trace.overhead_frac"] = quantile(tLat, 0.5)/quantile(lat, 0.5) - 1
		res.notes["traced_matrices"] = len(tLat)
		if err := writeSpans(o, "service-mixed", tr); err != nil {
			return nil, err
		}
		fillLayers(res.values)
	}
	return res, nil
}

// accounting sums /metrics, /store and /proc deltas over phases.
type accounting struct {
	matrices int
	delta    map[string]float64
}

func (a *accounting) add(ph *phase) {
	if a.delta == nil {
		a.delta = make(map[string]float64)
	}
	a.matrices += len(ph.records)
	for k, v := range ph.after.metrics {
		a.delta[k] += v - ph.before.metrics[k]
	}
	for k, v := range ph.after.store {
		a.delta["store:"+k] += v - ph.before.store[k]
	}
	a.delta["coord_cpu_ms"] += ph.after.coordCPU - ph.before.coordCPU
	a.delta["worker_cpu_ms"] += ph.after.workCPU - ph.before.workCPU
}

// perMatrix names the accounted deltas as per-layer metrics, per
// matrix served.
func (a *accounting) perMatrix() map[string]float64 {
	out := make(map[string]float64)
	if a.matrices == 0 {
		return out
	}
	per := float64(a.matrices)
	d := a.delta
	out["scenariod.coord_cpu_ms"] = d["coord_cpu_ms"] / per
	out["scenariod.worker_cpu_ms"] = d["worker_cpu_ms"] / per
	out["fleet.dispatches"] = d["krum_scenariod_dispatches_total"] / per
	out["fleet.requeues"] = d["krum_scenariod_requeues_total"] / per
	out["fleet.local_fallbacks"] = d["krum_scenariod_local_fallbacks_total"] / per
	out["scenariod.rejected"] = d["krum_scenariod_rejected_total"] / per
	out["store.hits"] = d["store:hits"] / per
	out["store.misses"] = d["store:misses"] / per
	out["store.saves"] = d["store:saves"] / per
	out["store.flight_waits"] = d["store:flight_waits"] / per
	if n := d["store:hits"] + d["store:misses"]; n > 0 {
		out["store.hit_ratio"] = d["store:hits"] / n
	}
	return out
}

// verifyFresh recomputes every fresh cell in-process with
// scenario.RunCell and compares its stable-JSON bytes with what the
// service served. It returns each cell's round count and the final
// accuracies of its Krum-family cells.
func verifyFresh(cells []freshCell) (rounds []int, acc []float64, err error) {
	rounds = make([]int, len(cells))
	accs := make([]float64, len(cells))
	errs := make([]error, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cells[i]
				cr := scenario.RunCell(nil, i, c.spec)
				if cr.Err != nil {
					errs[i] = fmt.Errorf("in-process %s: %w", c.spec.Label(), cr.Err)
					continue
				}
				want, err := json.Marshal(cr.Result)
				if err != nil {
					errs[i] = err
					continue
				}
				if sha256.Sum256(want) != c.served {
					errs[i] = fmt.Errorf("fresh cell %s: served bytes differ from an in-process run", c.spec.Label())
					continue
				}
				rounds[i] = len(cr.Result.History)
				accs[i] = cr.Result.FinalTestAccuracy
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, nil, fmt.Errorf("%d of %d fresh cells failed the in-process check; first: %w", len(failed), len(cells), failed[0])
	}
	for i, c := range cells {
		if isKrumFamily(c.spec.Rule) {
			acc = append(acc, accs[i])
		}
	}
	return rounds, acc, nil
}

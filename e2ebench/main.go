// Command e2ebench is the repository's end-to-end benchmark. It drives
// the program only through its public entry points and reports the
// metrics named in BENCHMARK.json; see README.md in this directory for
// the workloads, the metric definitions and the first baseline.
//
//	bash e2ebench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every correctness check that
// fails makes the command exit non-zero without printing it.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"krum/internal/vec"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"rounds_per_s", "rounds/s"},
	{"round_p50_ms", "ms"},
	{"round_p90_ms", "ms"},
	{"matrix_p50_ms", "ms"},
	{"matrix_p90_ms", "ms"},
	{"final_acc", "fraction"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics every traced run reports. Busy times and
// counts are per unit of work: per cell on grid-cold, per round on
// train-large, per matrix on service-mixed.
var perLayer = []metricDef{
	{"data.sample_ms", "ms"},
	{"data.samples", "count"},
	{"model.grad_ms", "ms"},
	{"model.grad_calls", "count"},
	{"model.eval_ms", "ms"},
	{"sim.gradients_ms", "ms"},
	{"attack.propose_ms", "ms"},
	{"attack.calls", "count"},
	{"vec.distances_ms", "ms"},
	{"vec.matrix_builds", "count"},
	{"vec.rows_updated", "count"},
	{"core.aggregate_ms", "ms"},
	{"core.select_ms", "ms"},
	{"distsgd.round_ms", "ms"},
	{"distsgd.other_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"scenario.cell_ms", "ms"},
	{"scenario.cells", "count"},
	{"store.overhead_ms", "ms"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.saves", "count"},
	{"store.flight_waits", "count"},
	{"store.hit_ratio", "fraction"},
	{"scenariod.submit_ms", "ms"},
	{"scenariod.first_cell_ms", "ms"},
	{"scenariod.coord_cpu_ms", "ms"},
	{"scenariod.worker_cpu_ms", "ms"},
	{"fleet.dispatches", "count"},
	{"fleet.requeues", "count"},
	{"fleet.local_fallbacks", "count"},
	{"scenariod.rejected", "count"},
	{"runtime.alloc_bytes_per_round", "bytes"},
	{"runtime.alloc_bytes_per_cell", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}

// options is what every workload receives.
type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	root      string // the checkout, for the run fingerprint
	out       string // build and scratch directory inside the checkout
	scenariod string // the krum-scenariod binary
}

// result is a workload's measurement. values holds every metric the
// workload measured; samples holds the sample count behind each
// percentile and median. A workload returns a result only when nothing
// failed: any failed cell or request fails the run instead.
type result struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	digest    string
	notes     map[string]any
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

var workloads = map[string]func(options) (*result, error){
	"grid-cold":     runGridCold,
	"train-large":   runTrainLarge,
	"service-mixed": runServiceMixed,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "grid-cold | train-large | service-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: every spec the program sees is generated from it")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced comparison and reports the per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	out := flag.String("out", ".bench_build/e2ebench", "build and scratch directory")
	scenariod := flag.String("scenariod", "", "krum-scenariod binary (service-mixed)")
	flag.Parse()

	work, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload grid-cold|train-large|service-mixed --seed N --seconds S --trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, out: *out, scenariod: *scenariod}
	res, err := work(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", *name, err)
		return 1
	}
	res.values["failed_frac"] = 0
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, *name, o, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// report prints the human-readable table, the full result record and,
// last, the result line.
func report(w *os.File, name string, o options, res *result, defs []metricDef) error {
	metrics := make(map[string]any, len(defs))
	fmt.Fprintf(w, "e2ebench %s seed=%d seconds=%g trace=%v\n", name, o.seed, o.seconds, o.trace)
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line := fmt.Sprintf("  %-30s %14.6g %s", d.name, v, d.unit)
		if n, ok := res.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if !o.trace {
		// failed_frac is zero on every accepted run, so BENCHMARK.json
		// carries it as a per-layer metric; the result line's failed and
		// attempted fields give it here.
		fmt.Fprintf(w, "  %-30s %14.6g %s  (0 of %d)\n", "failed_frac", 0.0, "fraction", res.attempted)
	}

	all := make(map[string]any, len(res.values))
	for k, v := range res.values {
		entry := map[string]any{"value": v}
		if n, ok := res.samples[k]; ok {
			entry["samples"] = n
		}
		all[k] = entry
	}
	record := map[string]any{
		"workload":    name,
		"trace":       o.trace,
		"seconds":     o.seconds,
		"fingerprint": fingerprint(o),
		"digest":      res.digest,
		"attempted":   res.attempted,
		"failed":      0,
		"measured":    all,
		"notes":       res.notes,
	}
	b, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", b)

	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    0,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// fingerprint identifies the host, the kernel order family and the
// source the numbers came from. Results whose kernel_order differ are
// never comparable bit for bit, and their timings belong to different
// kernels.
func fingerprint(o options) map[string]any {
	fp := map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"kernel_tier":  vec.KernelTier().String(),
		"kernel_order": vec.KernelOrder(),
		"go":           runtime.Version(),
		"commit":       commit(o.root),
		"seed":         o.seed,
	}
	if tier, ok := os.LookupEnv("KRUM_KERNEL_TIER"); ok {
		fp["krum_kernel_tier"] = tier
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the benchmark was built from: the VCS
// revision when the build recorded one, otherwise a hash of the
// checkout's Go sources and module files (a benchmark checkout need not
// be a git repository).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasSuffix(path, ".s")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSS returns the benchmark process's high-water resident set.
func peakRSS() (float64, error) { return procStatusMiB("self", "VmHWM") }

// setupRuns is how many times an in-process workload repeats its
// set-up; setup_s is the median. The set-up takes about a millisecond,
// so one sample would mostly measure scheduling noise.
const setupRuns = 25

// deadline returns when a timed phase of the run's length ends.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// repCounters are process-wide counter deltas of an in-process
// workload: allocation and GC around its untraced repetitions, distance
// matrix work around its traced ones.
type repCounters struct {
	allocBytes, gcCycles uint64
	builds, rowUpdates   uint64
}

// repeat runs repetitions until the run's seconds are spent, and at
// least two. A traced run alternates untraced and traced repetitions,
// starting untraced, so it has at least one of each.
func repeat(o options, rep func(traced bool) error) (repCounters, error) {
	var c repCounters
	var mem0, mem1 runtime.MemStats
	end := deadline(o)
	for i := 0; i < 2 || time.Now().Before(end); i++ {
		var err error
		if o.trace && i%2 == 1 {
			b0, r0 := vec.MatrixBuildCount(), vec.MatrixRowUpdateCount()
			err = rep(true)
			c.builds += vec.MatrixBuildCount() - b0
			c.rowUpdates += vec.MatrixRowUpdateCount() - r0
		} else {
			runtime.ReadMemStats(&mem0)
			err = rep(false)
			runtime.ReadMemStats(&mem1)
			c.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
			c.gcCycles += uint64(mem1.NumGC - mem0.NumGC)
		}
		if err != nil {
			return c, fmt.Errorf("repetition %d: %w", i, err)
		}
	}
	return c, nil
}

// sameDigest checks that every repetition produced the first one's
// result bytes.
func sameDigest(digests []string) error {
	for _, d := range digests[1:] {
		if d != digests[0] {
			return fmt.Errorf("result digest changed between repetitions: %s vs %s", digests[0], d)
		}
	}
	return nil
}

// Command ccperf is the repository's benchmark: one workload per
// process, measured end to end and, with -trace 1, per layer.
//
//	go run . -workload batch -seed 1 -seconds 15 -trace 0
//
// It drives the system only through public functions of its packages
// (core.Run, serve.Bootstrap and Server.ServeHTTP/Refresh, wal.Open with
// a timing wal.FS, cluster.StartLocal and Router.LoadGraph/Stats), times
// them from outside, and checks every output against an oracle outside
// the timed intervals. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed check
// prints "correct": false and exits 1. See README.md for the workloads
// and the metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // length of the timed phase
	scale    int     // log2 vertex count of the batch and serving graphs
	procs    int     // GOMAXPROCS and every Parallelism setting
	dir      string  // WAL directories and span files go here
}

// phase is the outcome of one measured pass: set-up, timed phase and
// checks.
type phase struct {
	attempted, failed int64
	e2e, layer        metrics
	errs              []error // correctness failures
}

func newPhase() *phase { return &phase{e2e: metrics{}, layer: metrics{}} }

// fail records a correctness failure; nil is ignored.
func (p *phase) fail(err error) {
	if err != nil {
		p.errs = append(p.errs, err)
	}
}

// workloadFunc runs one phase of a workload. rec is nil for the
// untraced run; the box's control sets are added by the workload
// between its timed sets.
type workloadFunc func(cfg config, rec *recorder, b *box) (*phase, error)

var workloads = map[string]workloadFunc{
	"batch":   runBatch,
	"ingest":  func(c config, r *recorder, b *box) (*phase, error) { return runServing(c, r, b, ingestMix) },
	"query":   func(c config, r *recorder, b *box) (*phase, error) { return runServing(c, r, b, queryMix) },
	"cluster": runCluster,
}

// setups is how many times a run builds its system; setup_s is the
// median.
const setups = 3

// setupMedian builds the system setups times from a clean heap, keeps
// the last build, discards the others, and returns the median build
// time in seconds.
func setupMedian[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var took []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		t := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		took = append(took, secs(time.Since(t)))
		last = v
	}
	return last, median(took), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: batch, ingest, query or cluster")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1: also run the workload traced and report per-layer metrics")
	scale := fs.Int("scale", 20, "log2 vertex count of the batch and serving graphs (cluster uses scale-2)")
	dir := fs.String("dir", ".bench_build/ccperf", "directory for WAL segments and the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || *scale < 8 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "ccperf: need -workload batch|ingest|query|cluster, -seconds > 0, -scale >= 8, -trace 0|1\n")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, scale: *scale, procs: procs, dir: *dir}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "ccperf: %v\n", err)
		return 1
	}
	b, err := newBox()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer b.close()

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printHeader(out, cfg, *traceFlag)

	plain, err := runPhase(wl, cfg, nil, b, out)
	if err != nil {
		fmt.Fprintf(stderr, "ccperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	printMetrics(out, endToEnd, plain.e2e)
	fmt.Fprintln(out, "# untraced run: per-layer metrics it measures")
	printMetrics(out, nonZero(perLayer, plain.layer), plain.layer)
	res := plain
	reported := metricsWithUnits(endToEnd, plain.e2e)
	if *traceFlag == 1 {
		rec := newRecorder()
		traced, err := runPhase(wl, cfg, rec, b, out)
		if err != nil {
			fmt.Fprintf(stderr, "ccperf: %s traced: %v\n", cfg.workload, err)
			return 1
		}
		st := rec.selfTimes()
		for _, l := range selfLayers {
			traced.layer[l+".self_ms"] = ms(st[l].self)
		}
		for _, m := range endToEnd {
			traced.layer["overhead."+m.name] = traced.e2e[m.name] - plain.e2e[m.name]
		}
		fmt.Fprintln(out, "# traced run: per-layer metrics")
		printMetrics(out, perLayer, traced.layer)
		printSelfTimes(out, st)
		path := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d.spans.jsonl", cfg.workload, cfg.seed))
		if err := rec.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "ccperf: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "# spans: %s\n", path)
		res = &phase{
			attempted: plain.attempted + traced.attempted,
			failed:    plain.failed + traced.failed,
			errs:      append(plain.errs, traced.errs...),
		}
		reported = metricsWithUnits(perLayer, traced.layer)
	}

	for _, err := range res.errs {
		fmt.Fprintf(out, "# CHECK FAILED: %v\n", err)
		fmt.Fprintf(stderr, "ccperf: check failed: %v\n", err)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]valueOfUnit `json:"metrics"`
	}{len(res.errs) == 0, res.attempted, res.failed, reported})
	if err != nil {
		fmt.Fprintf(stderr, "ccperf: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

// runPhase runs one phase and fills the per-layer metrics every
// workload shares.
func runPhase(wl workloadFunc, cfg config, rec *recorder, b *box, out io.Writer) (*phase, error) {
	b.spin, b.gather = nil, nil
	ph, err := wl(cfg, rec, b)
	if err != nil {
		return nil, err
	}
	layer := metrics{}
	for _, d := range perLayer {
		layer[d.name] = 0
	}
	for k, v := range ph.layer {
		if _, ok := layer[k]; !ok {
			return nil, fmt.Errorf("workload reported unknown per-layer metric %q", k)
		}
		layer[k] = v
	}
	if note := b.report(layer); note != "" {
		fmt.Fprintf(out, "# %s\n", note)
	}
	layer["proc.peak_rss_mb"] = peakRSSMB()
	ph.layer = layer
	for _, d := range endToEnd {
		if v, ok := ph.e2e[d.name]; !ok || v <= 0 {
			return nil, fmt.Errorf("end-to-end metric %s is %v; every metric must be measured and positive", d.name, v)
		}
	}
	return ph, nil
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func metricsWithUnits(defs []metricDef, m metrics) map[string]valueOfUnit {
	out := make(map[string]valueOfUnit, len(defs))
	for _, d := range defs {
		out[d.name] = valueOfUnit{m[d.name], d.unit}
	}
	return out
}

// nonZero returns the definitions whose metric is nonzero in m.
func nonZero(defs []metricDef, m metrics) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if m[d.name] != 0 {
			out = append(out, d)
		}
	}
	return out
}

func printMetrics(w io.Writer, defs []metricDef, m metrics) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, m[d.name], d.unit)
	}
}

func printHeader(w io.Writer, cfg config, trace int) {
	fmt.Fprintf(w, "# ccperf workload=%s seed=%d seconds=%g scale=%d trace=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.scale, trace)
	fmt.Fprintf(w, "# op: %s\n", opNames[cfg.workload])
	fmt.Fprintf(w, "# nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		cfg.procs, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit())
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

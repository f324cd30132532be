// Command ccbench regenerates every table and figure of the paper's
// evaluation from this repository's implementations. Each experiment
// prints rows/series matching the paper's (see DESIGN.md §4 for the
// index and EXPERIMENTS.md for recorded paper-vs-measured shapes).
//
// Examples:
//
//	ccbench -exp table3
//	ccbench -exp fig8a -scale 18 -runs 16
//	ccbench -exp all -scale 14 -runs 3
//	ccbench -exp fig6a -tsv > fig6a.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"afforest/internal/bench"
	"afforest/internal/cluster"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/obs"
	"afforest/internal/stats"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table2 | table3 | fig6a | fig6b | fig6c | fig7 | fig8a | fig8b | fig8c | ablation-rounds | ablation-sample | ablation-relabel | ext-dist | ext-gpu | bench | dist | all")
		benchOut = flag.String("benchout", "BENCH_afforest.json", "perf-trajectory history file appended to by -exp bench")
		gate     = flag.Bool("gate", false, "measure the trajectory grid and gate it against the baseline history: print the per-cell delta table, exit 1 on regression (read-only; does not append)")
		baseline = flag.String("baseline", "", "history file the gate compares against (default: the -benchout path)")
		slowCell = flag.String("inject-slowdown", "", "gate-validation aid: inflate one measured cell, e.g. afforest/kron=2 doubles its ns/edge before gating")
		gateTol  = flag.Float64("tolerance", 0, "gate: floor on the allowed fractional slowdown per cell (0 = default 0.35); raise on noisy boxes or tiny scales")
		scale    = flag.Int("scale", 0, "graph scale, ≈2^scale vertices (0 = default 16)")
		runs     = flag.Int("runs", 0, "timed repetitions per configuration (0 = default 5; paper uses 16)")
		seed     = flag.Uint64("seed", 42, "generator seed")
		par      = flag.Int("p", 0, "parallelism (0 = GOMAXPROCS)")
		validate = flag.Bool("validate", true, "validate every labeling against the oracle")
		tsv      = flag.Bool("tsv", false, "emit TSV instead of aligned tables")
		trace    = flag.String("trace", "", "run one traced Afforest pass at -scale, write the phase tree (JSONL) here, print the breakdown, and exit")
		ctrace   = flag.Bool("cluster-trace", false, "boot a traced 3-shard local cluster, load a kron graph at -scale, print the merged cluster timeline, and exit")
	)
	flag.Parse()

	cfg := bench.Config{Scale: *scale, Runs: *runs, Seed: *seed, Parallelism: *par, Validate: *validate}

	if *trace != "" {
		if err := tracedRun(*scale, *seed, *par, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		return
	}

	if *ctrace {
		if err := clusterTracedRun(*scale, *seed, *par); err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		return
	}

	if *gate {
		path := *baseline
		if path == "" {
			path = *benchOut
		}
		ok, err := gateRun(cfg, path, *slowCell, *gateTol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccbench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	type experiment struct {
		name string
		run  func()
	}
	emit := func(t *stats.Table) {
		if *tsv {
			t.RenderTSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}
	experiments := []experiment{
		{"table2", func() { emit(bench.Table2(cfg)) }},
		{"table3", func() { emit(bench.Table3(cfg)) }},
		{"fig6a", func() { emit(bench.Fig6a(cfg)) }},
		{"fig6b", func() { emit(bench.Fig6b(cfg)) }},
		{"fig6c", func() { emit(bench.Fig6c(cfg)) }},
		{"fig7", func() { fmt.Println(bench.Fig7(cfg).Render()) }},
		{"fig8a", func() { emit(bench.Fig8a(cfg)) }},
		{"fig8b", func() { emit(bench.Fig8b(cfg, nil)) }},
		{"fig8c", func() { emit(bench.Fig8c(cfg)) }},
		{"ablation-rounds", func() { emit(bench.AblationRounds(cfg)) }},
		{"ablation-sample", func() { emit(bench.AblationSampleSize(cfg)) }},
		{"ablation-relabel", func() { emit(bench.AblationRelabel(cfg)) }},
		{"ext-dist", func() { emit(bench.ExtDist(cfg)) }},
		{"ext-gpu", func() { emit(bench.ExtGPU(cfg)) }},
	}

	// `bench` is the perf-trajectory mode: it measures ns/edge for
	// afforest, sv, lp on urand/kron and appends the run to the
	// BENCH_afforest.json history. It is deliberately excluded from `all`
	// so that figure regeneration never silently grows the committed
	// record.
	runBench := func() {
		rep := bench.Trajectory(cfg)
		emit(rep.Table())
		hist, err := bench.LoadHistory(*benchOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: reading %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		hist.Append(rep)
		if err := hist.WriteJSON(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: writing %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[trajectory appended to %s (%d runs on record)]\n", *benchOut, len(hist.History))
	}

	// `dist` is the sharded-deployment companion to `bench`: it boots a
	// real 3-shard local cluster per run, measures ns/edge and wire
	// bytes/edge for a full graph load, and appends the cells
	// ("cluster", "cluster-bytes") to the same history — so `-gate`
	// guards exchange-volume regressions alongside time regressions.
	// Excluded from `all` like the other history-appending modes.
	runDist := func() {
		rep := bench.ClusterTrajectory(cfg)
		emit(rep.Table())
		hist, err := bench.LoadHistory(*benchOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: reading %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		hist.Append(rep)
		if err := hist.WriteJSON(*benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: writing %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[cluster cells appended to %s (%d runs on record)]\n", *benchOut, len(hist.History))
	}

	selected := strings.Split(*exp, ",")
	ran := 0
	for _, want := range selected {
		want = strings.TrimSpace(want)
		if want == "bench" {
			start := time.Now()
			runBench()
			fmt.Fprintf(os.Stderr, "[bench done in %v]\n", time.Since(start).Round(time.Millisecond))
			ran++
			continue
		}
		if want == "dist" {
			start := time.Now()
			runDist()
			fmt.Fprintf(os.Stderr, "[dist done in %v]\n", time.Since(start).Round(time.Millisecond))
			ran++
			continue
		}
		for _, e := range experiments {
			if want == "all" || want == e.name {
				start := time.Now()
				e.run()
				fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
				ran++
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

// gateRun measures the trajectory grid and gates it against the
// history at path. slowCell, when non-empty ("algorithm/graph=factor"),
// inflates that cell's measurement before gating — the knob `make
// perfgate` documentation uses to prove the gate actually fails on a
// real slowdown.
func gateRun(cfg bench.Config, path, slowCell string, tol float64) (bool, error) {
	hist, err := bench.LoadHistory(path)
	if err != nil {
		return false, err
	}
	rep := bench.Trajectory(cfg)
	// The cluster cells gate alongside the in-process ones: a change
	// that inflates exchange volume (bytes/edge) or cluster load time
	// fails the same gate as a link-phase slowdown. They only compare
	// against history entries appended by `-exp dist` under the same
	// configuration; with none on record they report as "new".
	rep.Entries = append(rep.Entries, bench.ClusterTrajectory(cfg).Entries...)
	if slowCell != "" {
		key, factorStr, ok := strings.Cut(slowCell, "=")
		if !ok {
			return false, fmt.Errorf("bad -inject-slowdown %q (want algorithm/graph=factor)", slowCell)
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return false, fmt.Errorf("bad -inject-slowdown factor %q: %v", factorStr, err)
		}
		hit := false
		for i := range rep.Entries {
			e := &rep.Entries[i]
			if e.Algorithm+"/"+e.Graph == key {
				e.NSPerEdge *= factor
				e.MedianMS *= factor
				hit = true
			}
		}
		if !hit {
			return false, fmt.Errorf("-inject-slowdown cell %q not in the trajectory grid", key)
		}
		fmt.Fprintf(os.Stderr, "[injected %sx slowdown into %s]\n", factorStr, key)
	}
	verdict := hist.GateAgainst(rep, obs.GateConfig{RelTolerance: tol})
	if err := verdict.WriteTable(os.Stdout); err != nil {
		return false, err
	}
	fmt.Println(verdict.Summary())
	if !verdict.OK() {
		bad := verdict.Regressed()
		fmt.Fprintf(os.Stderr, "ccbench: perf gate FAILED: %d cell(s) regressed vs %s (%d baseline runs)\n",
			len(bad), path, verdict.BaselineRuns)
		for _, c := range bad {
			fmt.Fprintf(os.Stderr, "  %s/%s: %.3f -> %.3f ns/edge (%+.1f%%, tolerance %.0f%%)\n",
				c.Algorithm, c.Graph, c.Baseline, c.New, c.Delta*100, c.Tolerance*100)
		}
		return false, nil
	}
	fmt.Fprintf(os.Stderr, "[perf gate ok vs %s (%d baseline runs)]\n", path, verdict.BaselineRuns)
	return true, nil
}

// tracedRun executes one Afforest pass over the benchmark Kronecker
// graph with the span tracer attached — the quick "where does the time
// go" companion to the figure experiments.
func tracedRun(scale int, seed uint64, par int, path string) error {
	if scale == 0 {
		scale = 16
	}
	g := gen.Kronecker(scale, 16, gen.Graph500, seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tracer := obs.NewTracer(obs.NewJSONLSink(bw))
	opt := core.DefaultOptions()
	opt.Parallelism = par
	opt.Seed = seed
	opt.Observer = tracer
	core.Run(g, opt)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep := tracer.Report()
	fmt.Printf("kron scale %d: %d vertices, %d edges; %d spans written to %s\n",
		scale, g.NumVertices(), g.NumEdges(), len(rep.Spans), path)
	return rep.WriteBreakdown(os.Stdout)
}

// clusterTracedRun is the cluster analogue of tracedRun: it boots a
// traced 3-shard in-process cluster, loads the benchmark Kronecker
// graph through the router (every RPC carrying the trace-context frame
// extension), pulls the shards' server-side spans, and prints the
// merged cluster timeline — per-round lanes of frames, pairs, wire
// bytes, merges, and client/server time per shard.
func clusterTracedRun(scale int, seed uint64, par int) error {
	if scale == 0 {
		scale = 14
	}
	g := gen.Kronecker(scale, 16, gen.Graph500, seed)
	tr := obs.NewWireTrace(0)
	l, err := cluster.StartLocal(g.NumVertices(), 3, cluster.Config{Trace: tr, Parallelism: par})
	if err != nil {
		return err
	}
	defer l.Close()
	start := time.Now()
	if err := l.Router.LoadGraph(g); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rows, err := l.Router.ClusterTimeline()
	if err != nil {
		return err
	}
	st := l.Router.Stats()
	fmt.Printf("kron scale %d across 3 shards: %d exchange rounds, %d KiB on the wire, loaded in %v\n",
		scale, st.Rounds, (st.BytesSent+st.BytesRecv)/1024, elapsed.Round(time.Millisecond))
	return obs.WriteClusterTimeline(os.Stdout, rows, false)
}

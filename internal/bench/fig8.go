package bench

import (
	"fmt"
	"time"

	"afforest/internal/baselines"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/stats"
)

// Fig8a reproduces Fig 8a: runtimes (median, with quartiles) of
// Afforest against every baseline on the full suite, plus the derived
// speedup columns the paper headlines — Afforest vs SV (paper:
// 2.49–67.24×) and Afforest vs the best non-SV competitor (paper:
// 0.47×–365.97×, geomean 4.99×). The paper's three architectures are
// one CPU substrate here (DESIGN.md §3); the GPU data-layout axis is
// represented by the sv-edgelist baseline.
func Fig8a(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	roster := algorithms("afforest", "sv", "sv-edgelist", "lp", "bfs", "dobfs")
	headers := []string{"graph"}
	for _, a := range roster {
		headers = append(headers, a.Name+"_ms")
	}
	headers = append(headers, "aff_vs_sv", "aff_vs_best_other")
	t := stats.NewTable(
		fmt.Sprintf("Fig 8a: CC runtimes, median of %d (scale=%d)", cfg.Runs, cfg.Scale),
		headers...)

	var vsSV, vsBest []float64
	for _, sg := range gen.Suite() {
		g := sg.Build(cfg.Scale, cfg.Seed)
		times := make([]stats.Timing, len(roster))
		for i, alg := range roster {
			var labels []graph.V
			times[i] = stats.MeasureFunc(cfg.Runs, func() {
				labels = alg.Run(g, core.Options{Parallelism: cfg.Parallelism})
			})
			checkLabeling(cfg, g, alg.Name+"/"+sg.Name, labels)
		}
		row := []any{sg.Name}
		for _, tm := range times {
			row = append(row, fmt.Sprintf("%.2f", tm.Median.Seconds()*1000))
		}
		aff := times[0]
		sv := times[1]
		bestOther := time.Duration(1<<63 - 1)
		for i := 2; i < len(times); i++ {
			if times[i].Median < bestOther {
				bestOther = times[i].Median
			}
		}
		sVsSV := float64(sv.Median) / float64(aff.Median)
		sVsBest := float64(bestOther) / float64(aff.Median)
		vsSV = append(vsSV, sVsSV)
		vsBest = append(vsBest, sVsBest)
		row = append(row, fmt.Sprintf("%.2fx", sVsSV), fmt.Sprintf("%.2fx", sVsBest))
		t.AddRow(row...)
	}
	t.AddRow("geomean", "", "", "", "", "", "",
		fmt.Sprintf("%.2fx", stats.GeoMean(vsSV)), fmt.Sprintf("%.2fx", stats.GeoMean(vsBest)))
	return t
}

// Fig8b reproduces Fig 8b: strong scaling on the web graph for SV,
// DOBFS, and Afforest with and without component skipping, across
// thread counts. Paper result at 10 cores: 4.77× (SV) to 6.15×
// (Afforest w/o skip); all algorithms scale similarly.
//
// Two speedup views are reported: wall-clock relative to each
// algorithm's single-threaded run (meaningful only when the host has
// that many physical cores — on a single-core host it stays ≈1), and a
// load-balance-limited model computed from per-worker work counts
// (total work / max worker work), which captures the parallel-slack
// component of scaling on any host (DESIGN.md §3). DOBFS has no work
// model — its balance is frontier-dependent — so only wall-clock is
// shown for it.
func Fig8b(cfg Config, threadCounts []int) *stats.Table {
	cfg = cfg.withDefaults()
	if len(threadCounts) == 0 {
		max := cfg.Parallelism
		if max < 8 {
			max = 8 // model the paper's range even on few-core hosts
		}
		for p := 1; p <= max; p *= 2 {
			threadCounts = append(threadCounts, p)
		}
	}
	g := gen.WebLike(1<<uint(cfg.Scale), 20, cfg.Seed)
	roster := algorithms("sv", "dobfs", "afforest-noskip", "afforest")
	headers := []string{"threads"}
	for _, a := range roster {
		headers = append(headers, a.Name+"_ms", a.Name+"_wallx")
	}
	headers = append(headers, "sv_modelx", "affns_modelx", "aff_modelx")
	t := stats.NewTable(
		fmt.Sprintf("Fig 8b: strong scaling on web (scale=%d, median of %d; modelx = balance-limited bound)", cfg.Scale, cfg.Runs),
		headers...)

	noSkipOpt := core.DefaultOptions()
	noSkipOpt.SkipLargest = false

	base := make([]time.Duration, len(roster))
	for _, threads := range threadCounts {
		row := []any{threads}
		for i, alg := range roster {
			var labels []graph.V
			tm := stats.MeasureFunc(cfg.Runs, func() {
				labels = alg.Run(g, core.Options{Parallelism: threads})
			})
			checkLabeling(cfg, g, alg.Name, labels)
			if threads == threadCounts[0] {
				base[i] = tm.Median
			}
			speedup := float64(base[i]) / float64(tm.Median)
			row = append(row, fmt.Sprintf("%.2f", tm.Median.Seconds()*1000), fmt.Sprintf("%.2fx", speedup))
		}
		row = append(row,
			fmt.Sprintf("%.2fx", core.ModeledSpeedup(baselines.SVWorkByWorker(g, threads))),
			fmt.Sprintf("%.2fx", core.ModeledSpeedup(core.WorkByWorker(g, noSkipOpt, threads))),
			fmt.Sprintf("%.2fx", core.ModeledSpeedup(core.WorkByWorker(g, core.DefaultOptions(), threads))))
		t.AddRow(row...)
	}
	return t
}

// Fig8c reproduces Fig 8c: runtime versus average component fraction
// f on urand graphs. Expected shapes: BFS/DOBFS runtime grows as
// components multiply (f ≤ 0.1) because component discovery
// serializes; SV and Afforest stay flat; DOBFS wins at f near 1
// (bottom-up dominance) with Afforest+skip competitive.
func Fig8c(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	roster := algorithms("dobfs", "bfs", "sv", "afforest-noskip", "afforest")
	headers := []string{"f"}
	for _, a := range roster {
		headers = append(headers, a.Name+"_ms")
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig 8c: runtime vs component fraction, urand deg=16 (scale=%d, median of %d)", cfg.Scale, cfg.Runs),
		headers...)
	seen := map[string]bool{}
	for _, f := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1} {
		n := 1 << uint(cfg.Scale)
		// Blocks must hold at least ~4·deg vertices to sustain the
		// average degree; the paper's 2^27-vertex runs never hit this
		// floor, but laptop scales do. Clamp and drop duplicates.
		if minF := 64 / float64(n); f < minF {
			f = minF
		}
		label := fmt.Sprintf("%.0e", f)
		if seen[label] {
			continue
		}
		seen[label] = true
		g := gen.URandComponents(n, 16, f, cfg.Seed)
		row := []any{label}
		for _, alg := range roster {
			var labels []graph.V
			tm := stats.MeasureFunc(cfg.Runs, func() {
				labels = alg.Run(g, core.Options{Parallelism: cfg.Parallelism})
			})
			checkLabeling(cfg, g, alg.Name, labels)
			row = append(row, fmt.Sprintf("%.2f", tm.Median.Seconds()*1000))
		}
		t.AddRow(row...)
	}
	return t
}

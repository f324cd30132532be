package bench

import (
	"fmt"

	"afforest/internal/core"
	"afforest/internal/dist"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/stats"
)

// AblationRounds sweeps Afforest's neighbor_rounds parameter on the web
// and kron graphs, reporting runtime and the fraction of arcs actually
// processed. The paper fixes neighbor_rounds = 2 from the convergence
// analysis (Section V-B, "the majority of the work completes after a
// small constant number of subgraph iterations"); this ablation shows
// the minimum around 1–3 rounds: 0 rounds degrades to SV-like full
// processing with no skip opportunity, while many rounds waste passes
// on already-converged trees.
func AblationRounds(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Ablation: neighbor_rounds sweep (scale=%d, median of %d)", cfg.Scale, cfg.Runs),
		"graph", "rounds", "time_ms", "arcs_processed_%")
	for _, name := range []string{"web", "kron", "urand"} {
		sg, err := gen.ByName(name)
		if err != nil {
			panic(err)
		}
		g := sg.Build(cfg.Scale, cfg.Seed)
		for _, rounds := range []int{-1, 1, 2, 3, 4, 8} {
			opt := core.DefaultOptions()
			opt.NeighborRounds = rounds
			opt.Parallelism = cfg.Parallelism
			var labels core.Parent
			tm := stats.MeasureFunc(cfg.Runs, func() {
				labels = core.Run(g, opt)
			})
			checkLabeling(cfg, g, fmt.Sprintf("afforest-r%d", rounds), labels.Labels())
			processed, total := core.EdgesProcessed(g, opt)
			shown := rounds
			if rounds < 0 {
				shown = 0
			}
			t.AddRow(name, shown,
				fmt.Sprintf("%.2f", tm.Median.Seconds()*1000),
				fmt.Sprintf("%.1f", 100*float64(processed)/float64(total)))
		}
	}
	return t
}

// AblationSampleSize sweeps the most-frequent-element sample count
// (Fig 5 line 10; default 1024). Too few samples misidentify the
// largest intermediate component, shrinking the skipped edge set —
// correctness is unaffected (Theorem 3) but work grows.
func AblationSampleSize(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Ablation: skip sample-size sweep, urand (scale=%d)", cfg.Scale),
		"samples", "time_ms", "arcs_processed_%", "mode_correct_of_10")
	g := gen.URandDegree(1<<uint(cfg.Scale), 16, cfg.Seed)

	// Ground truth: the true largest component's minimum id after two
	// neighbor rounds equals the final giant-component label.
	full := core.Run(g, core.DefaultOptions())
	counts := map[graph.V]int{}
	for _, l := range full.Labels() {
		counts[l]++
	}
	var trueMode graph.V
	best := -1
	for l, c := range counts {
		if c > best {
			trueMode, best = l, c
		}
	}

	for _, samples := range []int{4, 16, 64, 256, 1024, 4096} {
		opt := core.DefaultOptions()
		opt.SampleSize = samples
		opt.Parallelism = cfg.Parallelism
		var labels core.Parent
		tm := stats.MeasureFunc(cfg.Runs, func() {
			labels = core.Run(g, opt)
		})
		checkLabeling(cfg, g, fmt.Sprintf("afforest-s%d", samples), labels.Labels())
		processed, total := core.EdgesProcessed(g, opt)

		correct := 0
		for rep := 0; rep < 10; rep++ {
			p := core.Run(g, core.Options{NeighborRounds: -1, Parallelism: cfg.Parallelism})
			if core.SampleFrequentElement(p, samples, cfg.Seed+uint64(rep)) == trueMode {
				correct++
			}
		}
		t.AddRow(samples,
			fmt.Sprintf("%.2f", tm.Median.Seconds()*1000),
			fmt.Sprintf("%.1f", 100*float64(processed)/float64(total)),
			correct)
	}
	return t
}

// AblationRelabel measures the effect of degree-descending relabeling
// (the GAP locality optimization) on Afforest and SV over the kron
// graph, whose raw vertex ids scatter hubs across the id space.
func AblationRelabel(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Ablation: degree-descending relabeling, kron (scale=%d, median of %d)", cfg.Scale, cfg.Runs),
		"layout", "afforest_ms", "sv_ms")
	raw := gen.Kronecker(cfg.Scale, 16, gen.Graph500, cfg.Seed)
	relabeled, _ := graph.RelabelByDegree(raw, cfg.Parallelism)
	for _, row := range []struct {
		name string
		g    *graph.CSR
	}{{"original", raw}, {"degree-sorted", relabeled}} {
		algos := algorithms("afforest", "sv")
		opt := core.Options{Parallelism: cfg.Parallelism}
		var labels []graph.V
		tmA := stats.MeasureFunc(cfg.Runs, func() { labels = algos[0].Run(row.g, opt) })
		checkLabeling(cfg, row.g, "afforest/"+row.name, labels)
		tmS := stats.MeasureFunc(cfg.Runs, func() { labels = algos[1].Run(row.g, opt) })
		checkLabeling(cfg, row.g, "sv/"+row.name, labels)
		t.AddRow(row.name,
			fmt.Sprintf("%.2f", tmA.Median.Seconds()*1000),
			fmt.Sprintf("%.2f", tmS.Median.Seconds()*1000))
	}
	return t
}

// ExtDist evaluates the distributed-memory extension (Section VII
// future work): for the road and urand graphs it loads the graph into
// a fresh loopback cluster (internal/cluster) at each shard count and
// reports cut edges, exchange rounds, opinions and load time against
// the classic halo-exchange Label Propagation (dist.LP) on the same 1D
// partition. An opinion is one (vertex, label) pair a shard sends
// toward the vertex's owner (RouterStats.Opinions), and msg_ratio is LP
// messages per cluster opinion.
func ExtDist(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Extension: distributed memory, loopback cluster vs halo-exchange LP (scale=%d)", cfg.Scale),
		"graph", "shards", "cut_edges",
		"rounds", "opinions", "load_ms", "lp_rounds", "lp_msgs", "msg_ratio")
	for _, name := range []string{"road", "urand"} {
		sg, err := gen.ByName(name)
		if err != nil {
			panic(err)
		}
		g := sg.Build(cfg.Scale, cfg.Seed)
		for _, shards := range []int{2, 4, 8, 16} {
			elapsed, st := loadCluster(cfg, g, fmt.Sprintf("cluster-%d/%s", shards, name), shards, true)
			labelsL, stL := dist.LP(g, shards)
			checkLabeling(cfg, g, "dist-lp", labelsL)
			t.AddRow(name, shards, st.CutEdges,
				st.Rounds, st.Opinions, fmt.Sprintf("%.1f", elapsed.Seconds()*1000),
				stL.Rounds, stL.Messages,
				fmt.Sprintf("%.1fx", float64(stL.Messages)/float64(max(st.Opinions, 1))))
		}
	}
	return t
}

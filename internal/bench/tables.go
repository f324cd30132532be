package bench

import (
	"fmt"

	"afforest/internal/baselines"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/stats"
)

// Table2 reproduces Table II: for every suite graph, SV's iteration
// count and maximum intermediate tree depth versus Afforest's maximum
// tree depth and mean local (per-edge) link iterations. The paper's
// headline observation — Afforest's mean local iterations stay ≈1 —
// should be visible in the last column.
func Table2(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Table II: SV vs Afforest iteration/depth (scale=%d)", cfg.Scale),
		"graph", "sv_iters", "sv_max_depth", "aff_max_depth", "aff_mean_local_iters")
	for _, sg := range gen.Suite() {
		g := sg.Build(cfg.Scale, cfg.Seed)
		// SV's depth is read after each hook phase, before its shortcut.
		svDepth := 0
		svLabels, svIters := baselines.SVInstrumented(g, cfg.Parallelism, func(pi []graph.V) {
			svDepth = max(svDepth, core.Parent(pi).MaxDepth())
		})
		checkLabeling(cfg, g, "sv", svLabels)

		opt := core.DefaultOptions()
		opt.SkipLargest = false // Table II measures Afforest without skipping
		opt.Parallelism = cfg.Parallelism
		affLabels, rs := core.RunInstrumented(g, opt)
		checkLabeling(cfg, g, "afforest", affLabels.Labels())

		t.AddRow(sg.Name, svIters, svDepth, rs.MaxDepth,
			fmt.Sprintf("%.3f", rs.Link.MeanIterations()))
	}
	return t
}

// Table3 reproduces Table III: the statistics of every suite graph at
// the configured scale, alongside the real dataset each generator
// stands in for.
func Table3(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(
		fmt.Sprintf("Table III: graph suite statistics (scale=%d)", cfg.Scale),
		"graph", "|V|", "|E|", "avg_deg", "max_deg", "C", "max_comp_%", "diam>=", "analogue")
	for _, sg := range gen.Suite() {
		g := sg.Build(cfg.Scale, cfg.Seed)
		s := graph.ComputeStats(g, int64(cfg.Seed))
		t.AddRow(sg.Name, s.NumVertices, s.NumEdges,
			fmt.Sprintf("%.2f", s.AvgDegree), s.MaxDegree, s.Components,
			fmt.Sprintf("%.1f", 100*s.MaxCompFrac), s.ApproxDiam, sg.PaperAnalogue)
	}
	return t
}

package bench

import (
	"fmt"

	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/stats"
)

// Fig6a reproduces Fig 6a: Linkage versus percentage of processed edges
// on the web graph (the slowest-converging dataset) under the four
// partitioning strategies. Expected shape: neighbor ≈ optimal ≫ edge ≫
// row, with ~0.8+ linkage after two neighbor rounds.
func Fig6a(cfg Config) *stats.Table {
	return fig6measure(cfg, "Fig 6a: Linkage vs %% edges processed (web)", func(p core.ConvergencePoint) float64 {
		return p.Linkage
	})
}

// Fig6b reproduces Fig 6b: Coverage of the largest component versus
// percentage of processed edges under the same strategies.
func Fig6b(cfg Config) *stats.Table {
	return fig6measure(cfg, "Fig 6b: Coverage vs %% edges processed (web)", func(p core.ConvergencePoint) float64 {
		return p.Coverage
	})
}

func fig6measure(cfg Config, title string, pick func(core.ConvergencePoint) float64) *stats.Table {
	cfg = cfg.withDefaults()
	g := gen.WebLike(1<<uint(cfg.Scale), 20, cfg.Seed)
	t := stats.NewTable(fmt.Sprintf(title+" (scale=%d)", cfg.Scale),
		"strategy", "batch", "pct_edges", "value")
	for _, s := range core.AllStrategies() {
		batches := 20
		pts := core.MeasureConvergence(g, s, batches, cfg.Seed, cfg.Parallelism)
		// Neighbor sampling yields one batch per neighbor rank, which
		// can be hundreds; subsample the tail for readability while
		// always keeping the first rounds (the region Fig 6 zooms on).
		step := 1
		if len(pts) > 40 {
			step = len(pts) / 40
		}
		for i, p := range pts {
			if i < 8 || i%step == 0 || i == len(pts)-1 {
				t.AddRow(s.Name(), p.Batch, fmt.Sprintf("%.2f", p.PercentEdges),
					fmt.Sprintf("%.4f", pick(p)))
			}
		}
	}
	return t
}

// Fig6c reproduces Fig 6c: runtime versus average degree on Kronecker
// graphs for SV, LP, DOBFS, and Afforest. Expected shape: SV and LP
// grow with degree, DOBFS shrinks (more bottom-up short-cutting),
// Afforest stays flat.
func Fig6c(cfg Config) *stats.Table {
	cfg = cfg.withDefaults()
	t := stats.NewTable(fmt.Sprintf("Fig 6c: runtime vs average degree, kron (scale=%d, median of %d)", cfg.Scale, cfg.Runs),
		"degree", "sv_ms", "lp_ms", "dobfs_ms", "afforest_ms")
	for _, deg := range []int{4, 8, 16, 32, 64} {
		g := gen.Kronecker(cfg.Scale, deg, gen.Graph500, cfg.Seed)
		row := []any{deg}
		for _, alg := range algorithms("sv", "lp", "dobfs", "afforest") {
			var labels []uint32
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

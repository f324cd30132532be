package testkit

import (
	"fmt"
	"sync"

	"afforest/internal/baselines"
	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// Algo is one registered connected-components implementation the
// differential matrix can sweep. Run must return per-vertex labels;
// Audited, when non-nil, is the same run with a phase-boundary hook
// (only the Afforest variants expose phases).
type Algo struct {
	Name    string
	Run     func(g *graph.CSR, workers int, seed uint64) []graph.V
	Audited func(g *graph.CSR, workers int, seed uint64, audit func(core.Parent, string)) []graph.V
}

var (
	algoMu sync.Mutex
	algos  = map[string]Algo{}
)

// RegisterAlgo adds (or replaces) an algorithm in the registry. Tests
// register deliberately broken variants to prove the harness and the
// replay path catch them.
func RegisterAlgo(a Algo) {
	algoMu.Lock()
	defer algoMu.Unlock()
	algos[a.Name] = a
}

// LookupAlgo returns the registered algorithm with the given name.
func LookupAlgo(name string) (Algo, error) {
	algoMu.Lock()
	defer algoMu.Unlock()
	a, ok := algos[name]
	if !ok {
		return Algo{}, fmt.Errorf("testkit: unknown algorithm %q", name)
	}
	return a, nil
}

func afforestAlgo(name string, mod func(*core.Options)) Algo {
	opts := func(workers int, seed uint64) core.Options {
		o := core.DefaultOptions()
		o.Parallelism = workers
		o.Seed = seed
		if mod != nil {
			mod(&o)
		}
		return o
	}
	return Algo{
		Name: name,
		Run: func(g *graph.CSR, workers int, seed uint64) []graph.V {
			return core.Run(g, opts(workers, seed)).Labels()
		},
		Audited: func(g *graph.CSR, workers int, seed uint64, audit func(core.Parent, string)) []graph.V {
			return core.RunAudited(g, opts(workers, seed), audit).Labels()
		},
	}
}

func baselineAlgo(name string, run func(g *graph.CSR, parallelism int) []graph.V) Algo {
	return Algo{
		Name: name,
		// Baselines take no seed: under deterministic scheduling the
		// seed still matters — it drives their chunk permutations.
		Run: func(g *graph.CSR, workers int, _ uint64) []graph.V {
			return run(g, workers)
		},
	}
}

// StalledAfforest is a deliberately broken Afforest whose neighbor
// rounds never advance: every round re-links each vertex's FIRST
// neighbor instead of the r-th, so the per-round link count never
// decays and convergence stalls by construction. It emits the real
// phase spans (neighbor_round with link stats, compress, final
// compress) on tr, whose sinks see exactly the event stream the anomaly
// detector's convergence-stall rule watches (nil tr records them on a
// throwaway tracer). It is NOT registered in the differential matrix —
// its labels are wrong on purpose (only first-neighbor edges are ever
// linked); tests construct it directly.
func StalledAfforest(g *graph.CSR, workers, rounds int, tr *obs.Tracer) []graph.V {
	n := g.NumVertices()
	p := core.NewParent(n)
	if n == 0 {
		return p.Labels()
	}
	if tr == nil {
		tr = obs.NewTracer()
	}
	offsets, targets := g.Adjacency(0, n)
	w := concurrent.Procs(workers)
	root := tr.BeginPhase(obs.PhaseRun)
	for r := 0; r < rounds; r++ {
		span := tr.BeginPhase(obs.PhaseNeighborRound)
		per := make([]core.LinkStats, w)
		concurrent.ForRange(n, workers, 512, func(lo, hi, worker int) {
			st := &per[worker]
			for u := lo; u < hi; u++ {
				if offsets[u] < offsets[u+1] {
					core.LinkCounted(p, graph.V(u), targets[offsets[u]], st)
				}
			}
		})
		var total core.LinkStats
		for i := range per {
			total.Calls += per[i].Calls
			total.Iterations += per[i].Iterations
			total.CASFails += per[i].CASFails
			total.Merges += per[i].Merges
			if per[i].MaxIters > total.MaxIters {
				total.MaxIters = per[i].MaxIters
			}
		}
		tr.EndPhase(span, total.PhaseStats())
		span = tr.BeginPhase(obs.PhaseCompress)
		core.CompressAll(p, workers)
		tr.EndPhase(span, obs.PhaseStats{})
	}
	span := tr.BeginPhase(obs.PhaseFinalCompress)
	core.CompressAll(p, workers)
	tr.EndPhase(span, obs.PhaseStats{})
	tr.EndPhase(root, obs.PhaseStats{})
	return p.Labels()
}

func init() {
	RegisterAlgo(afforestAlgo("afforest", nil))
	RegisterAlgo(afforestAlgo("afforest-noskip", func(o *core.Options) { o.SkipLargest = false }))
	RegisterAlgo(afforestAlgo("afforest-nosample", func(o *core.Options) {
		o.NeighborRounds = -1
		o.SkipLargest = false
	}))
	RegisterAlgo(baselineAlgo("sv", baselines.SV))
	RegisterAlgo(baselineAlgo("sv-edgelist", baselines.SVEdgeList))
	RegisterAlgo(baselineAlgo("lp", baselines.LP))
	RegisterAlgo(baselineAlgo("lp-datadriven", baselines.LPDataDriven))
	RegisterAlgo(baselineAlgo("bfs", baselines.BFSCC))
}

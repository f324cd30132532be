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
// differential matrix can sweep: a roster entry (baselines.Roster), or
// a variant a test registers. Audited, when non-nil, is the same run
// with a phase-boundary hook (only the Afforest variants expose phases).
type Algo = baselines.Entry

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

// The registry starts as the roster plus Afforest with sampling off,
// a variant only the harness sweeps.
func init() {
	for _, e := range baselines.Roster() {
		RegisterAlgo(e)
	}
	RegisterAlgo(baselines.AfforestEntry("afforest-nosample", func(o *core.Options) {
		o.NeighborRounds = -1
		o.SkipLargest = false
	}))
}

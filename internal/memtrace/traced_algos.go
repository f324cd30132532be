package memtrace

import (
	"sync/atomic"

	"afforest/internal/concurrent"
	"afforest/internal/graph"
)

// The traced algorithm replicas below mirror internal/core and
// internal/baselines step for step, routing every π access through the
// traced Array. Equivalence with the production implementations is
// pinned by tests comparing final labelings.

// tracedLink is core.Link against a traced array: the halving climb,
// whose grandparent store is recorded as a write.
func tracedLink(a *Array, w int, u, v graph.V) {
	p1 := a.Get(w, u)
	p2 := a.Get(w, v)
	for p1 != p2 {
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := a.Get(w, h)
		if ph == l || (ph == h && a.CAS(w, h, h, l)) {
			return
		}
		ph = a.Get(w, h)
		gp := a.Get(w, ph)
		if gp != ph {
			a.Set(w, h, gp)
		}
		p1 = gp
		p2 = a.Get(w, l)
	}
}

// tracedCompress is core.Compress against a traced array.
func tracedCompress(a *Array, w int, v graph.V) {
	for {
		parent := a.Get(w, v)
		grand := a.Get(w, parent)
		if parent == grand {
			return
		}
		a.Set(w, v, grand)
	}
}

// TracedAfforest runs Afforest (Fig 5) with neighborRounds sampling
// rounds and optional component skipping on the traced array, returning
// the trace and the final labels. workers fixes the goroutine count so
// the per-thread scatter of Fig 7 is well defined.
func TracedAfforest(g *graph.CSR, neighborRounds int, skip bool, workers int) (*Trace, []graph.V) {
	n := g.NumVertices()
	a := NewArray(n, workers)
	for r := 0; r < neighborRounds; r++ {
		a.SetPhase(PhaseLink)
		concurrent.ForWorker(n, workers, 256, func(i, w int) {
			u := graph.V(i)
			if r < g.Degree(u) {
				tracedLink(a, w, u, g.Neighbor(u, r))
			}
		})
		a.SetPhase(PhaseCompress)
		concurrent.ForWorker(n, workers, 256, func(i, w int) {
			tracedCompress(a, w, graph.V(i))
		})
	}
	var c graph.V
	if skip {
		a.SetPhase(PhaseFind)
		c = tracedSampleFrequent(a, 1024, 1)
	}
	a.SetPhase(PhaseLink)
	concurrent.ForWorker(n, workers, 256, func(i, w int) {
		u := graph.V(i)
		if skip && a.Get(w, u) == c {
			return
		}
		deg := g.Degree(u)
		for k := neighborRounds; k < deg; k++ {
			tracedLink(a, w, u, g.Neighbor(u, k))
		}
	})
	a.SetPhase(PhaseCompress)
	concurrent.ForWorker(n, workers, 256, func(i, w int) {
		tracedCompress(a, w, graph.V(i))
	})
	return a.Finish(), a.Snapshot()
}

// tracedSampleFrequent mirrors core.SampleFrequentElement, recording
// the random π reads of the "F" section in Fig 7c.
func tracedSampleFrequent(a *Array, samples int, seed uint64) graph.V {
	n := a.Len()
	if n == 0 {
		return 0
	}
	if samples > n {
		samples = n
	}
	counts := make(map[graph.V]int, samples)
	s := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	best, bestCount := graph.V(0), -1
	for i := 0; i < samples; i++ {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v := a.Get(0, graph.V(z%uint64(n)))
		counts[v]++
		if counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	return best
}

// TracedSV runs Shiloach–Vishkin (Fig 1) on the traced array — the
// Fig 7a reference pattern, alternating Hook and Compress phases over
// the whole edge set every iteration.
func TracedSV(g *graph.CSR, workers int) (*Trace, []graph.V) {
	n := g.NumVertices()
	a := NewArray(n, workers)
	var change atomic.Bool
	change.Store(true)
	for change.Load() {
		change.Store(false)
		a.SetPhase(PhaseHook)
		concurrent.ForWorker(n, workers, 256, func(i, w int) {
			u := graph.V(i)
			for _, v := range g.Neighbors(u) {
				pu := a.Get(w, u)
				pv := a.Get(w, v)
				if pu == pv {
					continue
				}
				high, low := pu, pv
				if high < low {
					high, low = low, high
				}
				if a.Get(w, high) == high {
					a.Set(w, high, low)
					change.Store(true)
				}
			}
		})
		a.SetPhase(PhaseCompress)
		concurrent.ForWorker(n, workers, 256, func(i, w int) {
			tracedCompress(a, w, graph.V(i))
		})
	}
	return a.Finish(), a.Snapshot()
}

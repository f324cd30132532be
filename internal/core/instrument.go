package core

import (
	"afforest/internal/concurrent"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// LinkStats aggregates the per-edge behaviour of Link for Table II:
// the number of local loop iterations each Link call performs, and the
// deepest parent-chain walk observed. In the paper's measurements the
// average local iteration count stays near 1 — most edges only verify
// already-converged trees — while the maximum observed depth stays
// close to SV's tree depth despite Link's unbounded climb.
type LinkStats struct {
	Calls      int64
	Iterations int64
	MaxIters   int64
	CASFails   int64
	Merges     int64 // successful hook CASes: edges that united two trees
	Checked    int64 // final pass: skip-filter decisions taken
	Skipped    int64 // final pass: decisions that dropped the source
}

// MeanIterations returns average Link loop iterations per call.
func (s *LinkStats) MeanIterations() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Iterations) / float64(s.Calls)
}

// merge adds o into s.
func (s *LinkStats) merge(o *LinkStats) {
	s.Calls += o.Calls
	s.Iterations += o.Iterations
	s.CASFails += o.CASFails
	s.Merges += o.Merges
	s.Checked += o.Checked
	s.Skipped += o.Skipped
	if o.MaxIters > s.MaxIters {
		s.MaxIters = o.MaxIters
	}
}

// PhaseStats converts the accounting into the observability payload.
// Every Link call corresponds to one edge handed to the phase, so
// Edges == Links here; phases that skip edges without calling Link
// report the difference themselves.
func (s *LinkStats) PhaseStats() obs.PhaseStats {
	return obs.PhaseStats{
		Edges:      s.Calls,
		Links:      s.Calls,
		Iters:      s.Iterations,
		MaxIters:   s.MaxIters,
		CASRetries: s.CASFails,
		Merges:     s.Merges,
		Checked:    s.Checked,
		Skipped:    s.Skipped,
	}
}

// LinkCounted is Link with iteration accounting into st. The control
// flow is identical to Link; duplication keeps the uninstrumented hot
// path free of counters, and the equivalence is pinned by
// TestLinkCountedMatchesLink.
func LinkCounted(p Parent, u, v graph.V, st *LinkStats) {
	st.Calls++
	// The entry comparison counts as one local iteration, matching the
	// paper's accounting: an edge whose trees already converged runs "a
	// single local iteration of link for validation" (Section V-A).
	iters := int64(1)
	p1 := p.Get(u)
	p2 := p.Get(v)
	for p1 != p2 {
		iters++
		var h, l graph.V
		if p1 > p2 {
			h, l = p1, p2
		} else {
			h, l = p2, p1
		}
		ph := p.Get(h)
		if ph == l {
			break
		}
		if ph == h {
			if p.cas(h, h, l) {
				st.Merges++
				break
			}
			st.CASFails++
		}
		p1 = p.Get(p.Get(h))
		p2 = p.Get(l)
	}
	st.Iterations += iters
	if iters > st.MaxIters {
		st.MaxIters = iters
	}
}

// RunStats is the full Table II record for one Afforest execution.
type RunStats struct {
	Link LinkStats
	// MaxDepth is the deepest tree observed at phase boundaries (after
	// each link phase, before its compress).
	MaxDepth int
	// Rounds is the number of neighbor rounds executed.
	Rounds int
}

// RunInstrumented executes Afforest exactly like Run while collecting
// RunStats. Per-worker stats are accumulated without synchronization in
// worker-private structs and merged at phase boundaries, so the
// measured algorithm is the same algorithm. When opt.Observer is also
// set, it receives the same phase tree Run would emit.
func RunInstrumented(g *graph.CSR, opt Options) (Parent, *RunStats) {
	n := g.NumVertices()
	p := NewParent(n)
	rs := &RunStats{Rounds: opt.rounds()}
	if n == 0 {
		return p, rs
	}
	// Each link span's stats fold into the Table II accounting, and the
	// tree depth is measured while the span's trees are still unflattened.
	runObservedOn(g, opt, p, func(phase string, st obs.PhaseStats) {
		if phase != obs.PhaseNeighborRound && phase != obs.PhaseFinal {
			return
		}
		rs.Link.merge(&LinkStats{Calls: st.Links, Iterations: st.Iters,
			MaxIters: st.MaxIters, CASFails: st.CASRetries, Merges: st.Merges})
		if d := p.MaxDepth(); d > rs.MaxDepth {
			rs.MaxDepth = d
		}
	})
	return p, rs
}

// runObservedOn is Run's phase loop with LinkCounted in place of Link
// and a span per phase, opened on opt.Observer (a throwaway tracer when
// nil), writing into the caller's p. The loops mirror Run exactly (raw
// CSR slices, the same grains, the same arc-balanced final pass). after,
// when non-nil, runs on the submitting goroutine each time a span closes,
// with the span's name and stats: no parallel work is in flight then,
// and a link span's compress has not run yet. Callers guarantee n > 0.
func runObservedOn(g *graph.CSR, opt Options, p Parent, after func(phase string, st obs.PhaseStats)) {
	tr := opt.Observer
	if tr == nil {
		tr = obs.NewTracer()
	}
	end := func(id obs.SpanID, phase string, st obs.PhaseStats) {
		tr.EndPhase(id, st)
		if after != nil {
			after(phase, st)
		}
	}
	n := g.NumVertices()
	root := tr.BeginPhase(obs.PhaseRun)
	rounds := opt.rounds()
	workers := workerCount(opt.Parallelism)
	offsets, targets := g.Adjacency(0, n)

	mergeWorkers := func(per []LinkStats) obs.PhaseStats {
		var total LinkStats
		for w := range per {
			total.merge(&per[w])
		}
		return total.PhaseStats()
	}

	for r := 0; r < rounds; r++ {
		span := tr.BeginPhase(obs.PhaseNeighborRound)
		per := make([]LinkStats, workers)
		rr := int64(r)
		concurrent.ForRange(n, opt.Parallelism, 512, func(lo, hi, w int) {
			st := &per[w]
			for u := lo; u < hi; u++ {
				if k := offsets[u] + rr; k < offsets[u+1] {
					LinkCounted(p, graph.V(u), targets[k], st)
				}
			}
		})
		end(span, obs.PhaseNeighborRound, mergeWorkers(per))
		span = tr.BeginPhase(obs.PhaseCompress)
		compressVariant(p, opt)
		end(span, obs.PhaseCompress, obs.PhaseStats{})
	}

	var c graph.V
	skip := opt.SkipLargest
	if skip {
		span := tr.BeginPhase(obs.PhaseSample)
		var ratio float64
		c, ratio = SampleFrequentElementRatio(p, opt.sampleSize(), opt.Seed)
		end(span, obs.PhaseSample, obs.PhaseStats{SkipRatio: ratio})
	}

	span := tr.BeginPhase(obs.PhaseFinal)
	per := make([]LinkStats, workers)
	skipArcs := int64(rounds)
	concurrent.ForEdgeRange(offsets, opt.Parallelism, opt.EdgeGrain, func(vlo, vhi int, alo, ahi int64, w int) {
		st := &per[w]
		for u := vlo; u < vhi; u++ {
			lo, hi := offsets[u]+skipArcs, offsets[u+1]
			if lo < alo {
				lo = alo
			}
			if hi > ahi {
				hi = ahi
			}
			if lo >= hi {
				continue
			}
			uu := graph.V(u)
			if skip {
				st.Checked++
				if p.Get(uu) == c {
					st.Skipped++
					continue
				}
			}
			for _, v := range targets[lo:hi] {
				LinkCounted(p, uu, v, st)
			}
		}
	})
	end(span, obs.PhaseFinal, mergeWorkers(per))

	span = tr.BeginPhase(obs.PhaseFinalCompress)
	CompressAll(p, opt.Parallelism)
	end(span, obs.PhaseFinalCompress, obs.PhaseStats{})
	end(root, obs.PhaseRun, obs.PhaseStats{})
}

// EdgesProcessed estimates work saved by sampling+skipping: it runs
// Afforest instrumented, and returns the arcs actually passed to Link
// (one Link call each) together with the total arc count.
func EdgesProcessed(g *graph.CSR, opt Options) (processed, total int64) {
	_, rs := RunInstrumented(g, opt)
	return rs.Link.Calls, g.NumArcs()
}

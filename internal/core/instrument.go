package core

import (
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

// LinkCounted is Link with its accounting folded into st.
func LinkCounted(p Parent, u, v graph.V, st *LinkStats) {
	_, loser, iters, casFails := link[halving](p, u, v)
	st.addLink(loser, iters, casFails)
}

// addLink folds one link call's report into s.
func (s *LinkStats) addLink(loser graph.V, iters, casFails int64) {
	s.Calls++
	s.Iterations += iters
	if iters > s.MaxIters {
		s.MaxIters = iters
	}
	s.CASFails += casFails
	if loser != 0 {
		s.Merges++
	}
}

// addCheck folds one final-pass skip decision into s.
func (s *LinkStats) addCheck(skipped bool) {
	s.Checked++
	if skipped {
		s.Skipped++
	}
}

// sumStats merges per-worker accounting into one phase's span stats.
func sumStats(per []LinkStats) obs.PhaseStats {
	var total LinkStats
	for w := range per {
		total.merge(&per[w])
	}
	return total.PhaseStats()
}

// spans opens and closes the counted driver's phase spans. The zero
// value, the uncounted driver's, records nothing.
type spans struct {
	tr    *obs.Tracer
	after func(phase string, st obs.PhaseStats)
}

func (s spans) begin(phase string) obs.SpanID {
	if s.tr == nil {
		return -1
	}
	return s.tr.BeginPhase(phase)
}

// end closes span id with st, then hands both to after.
func (s spans) end(id obs.SpanID, phase string, st obs.PhaseStats) {
	if s.tr == nil {
		return
	}
	s.tr.EndPhase(id, st)
	if s.after != nil {
		s.after(phase, st)
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
// RunStats: it runs the counted driver, whose per-worker stats are
// accumulated without synchronization in worker-private structs and
// merged at phase boundaries, so the measured algorithm is the same
// algorithm. When opt.Observer is also set, it receives the same phase
// tree Run would emit.
func RunInstrumented(g *graph.CSR, opt Options) (Parent, *RunStats) {
	p := NewParent(g.NumVertices())
	rs := &RunStats{Rounds: opt.rounds()}
	// Each link span's stats fold into the Table II accounting, and the
	// tree depth is measured while the span's trees are still unflattened.
	run[counted](g, opt, p, func(phase string, st obs.PhaseStats) {
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

// EdgesProcessed estimates work saved by sampling+skipping: it runs
// Afforest instrumented, and returns the arcs actually passed to Link
// (one Link call each) together with the total arc count.
func EdgesProcessed(g *graph.CSR, opt Options) (processed, total int64) {
	_, rs := RunInstrumented(g, opt)
	return rs.Link.Calls, g.NumArcs()
}

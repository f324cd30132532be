package core

import (
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// RunAudited executes the full Afforest algorithm exactly like Run
// (observed path: LinkCounted in place of Link, identical loops and
// grains) while invoking audit(p, phase) every time a phase span
// closes, with the phase's obs name ("neighbor_round", "compress",
// "sample_frequent", "final_skip_pass", "final_compress",
// "afforest_run"). The audit runs on the submitting goroutine between
// phases — no parallel work is in flight — so it may read π freely and
// check invariants that only hold at phase boundaries (e.g. depth ≤ 1
// after a full compress). This is the hook the correctness harness
// (internal/testkit) hangs its per-phase invariant audits on.
//
// A tracer already present in opt.Observer still receives the same
// phase tree Run would emit.
func RunAudited(g *graph.CSR, opt Options, audit func(p Parent, phase string)) Parent {
	n := g.NumVertices()
	p := NewParent(n)
	if n == 0 {
		// The contract is "at least one boundary per run": an empty graph
		// still closes its run phase so auditors can tell "nothing to do"
		// from "hook never fired".
		audit(p, obs.PhaseRun)
		return p
	}
	runObservedOn(g, opt, p, func(phase string, _ obs.PhaseStats) { audit(p, phase) })
	return p
}

package testkit

import (
	"fmt"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/validate"
)

// Auditor checks the paper's forest invariants at every phase boundary
// of an instrumented run (core.RunAudited):
//
//   - Invariant 1, π(x) ≤ x, for every vertex — Lemma 1 derives
//     acyclicity from it, so a passing check also proves root walks
//     terminate;
//   - compress idempotence (π(π(x)) = π(x)) after every compress pass
//     (Theorem 2 flattens all trees to depth ≤ 1);
//   - partition refinement against ground truth: at any instant each
//     π-tree must contain only genuinely connected vertices — link may
//     under-merge mid-run, never over-merge.
//
// The first violation is retained, stamped with the phase that
// produced it; later phases are still audited so Phases() counts the
// whole run.
type Auditor struct {
	oracle []graph.V
	err    error
	phases int
}

// NewAuditor builds an auditor for runs over g, computing the
// ground-truth partition once.
func NewAuditor(g *graph.CSR) *Auditor {
	return &Auditor{oracle: Oracle(g)}
}

// Hook returns the phase-boundary callback to pass to core.RunAudited.
func (a *Auditor) Hook() func(p core.Parent, phase string) {
	return func(p core.Parent, phase string) {
		a.phases++
		if err := a.audit(p, phase); err != nil && a.err == nil {
			a.err = fmt.Errorf("after phase %q (boundary %d): %w", phase, a.phases, err)
		}
	}
}

// Err returns the first invariant violation observed, or nil.
func (a *Auditor) Err() error { return a.err }

// Phases returns how many phase boundaries were audited.
func (a *Auditor) Phases() int { return a.phases }

func (a *Auditor) audit(p core.Parent, phase string) error {
	pi := p.Labels() // aliases π; the audit runs between phases, no writers
	if err := ParentBound(pi); err != nil {
		return err
	}
	// Depth ≤ 1 must hold once a compress pass has closed. Link phases
	// may legally leave deeper trees.
	if phase == obs.PhaseCompress || phase == obs.PhaseFinalCompress {
		if err := Idempotent(pi); err != nil {
			return err
		}
	}
	// Refinement vs ground truth on root-resolved labels: ParentBound
	// passing means every walk terminates in ≤ n steps.
	roots := make([]graph.V, len(pi))
	for v := range pi {
		r := graph.V(v)
		for steps := 0; pi[r] != r; steps++ {
			if steps > len(pi) {
				return &validate.Violation{
					Invariant: validate.InvParentBound, Vertex: v, EdgeU: -1, EdgeV: -1,
					Detail: "root walk did not terminate (cycle in π)",
				}
			}
			r = pi[r]
		}
		roots[v] = r
	}
	if err := Refines(roots, a.oracle); err != nil {
		return err
	}
	// The run's closing boundary must deliver the exact partition.
	if phase == obs.PhaseRun {
		return SamePartition(a.oracle, roots)
	}
	return nil
}

package testkit

import (
	"strings"
	"testing"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/validate"
)

// The auditor is only trustworthy if it actually fires on corrupted
// state. These tests hand it hand-corrupted π arrays at specific phase
// boundaries and check that the right invariant trips, with the phase
// name stamped on the error.

func auditorFor(oracle ...graph.V) *Auditor {
	return &Auditor{oracle: oracle}
}

func TestAuditorCatchesParentBoundViolation(t *testing.T) {
	a := auditorFor(0, 0)
	a.Hook()(core.Parent{1, 1}, obs.PhaseSample) // π(0)=1 > 0
	err := a.Err()
	if err == nil {
		t.Fatal("π(0)=1 passed the audit")
	}
	v, _ := validate.AsViolation(err)
	if v == nil || v.Invariant != validate.InvParentBound {
		t.Fatalf("want %s violation, got %v", validate.InvParentBound, err)
	}
	if !strings.Contains(err.Error(), obs.PhaseSample) {
		t.Errorf("error %q does not name the failing phase %q", err, obs.PhaseSample)
	}
}

func TestAuditorCatchesOverMerge(t *testing.T) {
	// Ground truth has two components {0,1} and {2,3}; π merges all
	// four. Refinement (never merge across true components) must trip
	// even mid-run, at any phase.
	a := auditorFor(0, 0, 2, 2)
	a.Hook()(core.Parent{0, 0, 0, 0}, obs.PhaseNeighborRound)
	v, _ := validate.AsViolation(a.Err())
	if v == nil || v.Invariant != validate.InvRefinement {
		t.Fatalf("want %s violation, got %v", validate.InvRefinement, a.Err())
	}
}

func TestAuditorCatchesUnderMergeAtRunEnd(t *testing.T) {
	// Mid-run an unmerged pair is legal (refinement allows it)...
	a := auditorFor(0, 0)
	a.Hook()(core.Parent{0, 1}, obs.PhaseNeighborRound)
	if err := a.Err(); err != nil {
		t.Fatalf("mid-run under-merge must be legal, got %v", err)
	}
	// ...but the run's closing boundary must deliver the full partition.
	a.Hook()(core.Parent{0, 1}, obs.PhaseRun)
	v, _ := validate.AsViolation(a.Err())
	if v == nil || v.Invariant != validate.InvPartitionEqual {
		t.Fatalf("want %s violation at run end, got %v", validate.InvPartitionEqual, a.Err())
	}
	if a.Phases() != 2 {
		t.Errorf("Phases() = %d, want 2", a.Phases())
	}
}

func TestAuditorCatchesDeepTreeAfterCompress(t *testing.T) {
	// π = 2 -> 1 -> 0 is depth 2: legal after a link phase, an
	// idempotence violation after a full compress.
	deep := core.Parent{0, 0, 1}
	a := auditorFor(0, 0, 0)
	a.Hook()(deep, obs.PhaseFinal)
	if err := a.Err(); err != nil {
		t.Fatalf("depth-2 tree after a link phase must be legal, got %v", err)
	}
	a.Hook()(deep, obs.PhaseCompress)
	v, _ := validate.AsViolation(a.Err())
	if v == nil || v.Invariant != validate.InvIdempotent {
		t.Fatalf("want %s violation after compress, got %v", validate.InvIdempotent, a.Err())
	}
}

func TestAuditorKeepsFirstViolation(t *testing.T) {
	a := auditorFor(0, 0)
	a.Hook()(core.Parent{1, 1}, obs.PhaseSample)
	first := a.Err()
	a.Hook()(core.Parent{0, 1}, obs.PhaseRun) // a second, different violation
	if a.Err() != first {
		t.Errorf("auditor replaced the first violation: %v", a.Err())
	}
	if a.Phases() != 2 {
		t.Errorf("Phases() = %d, want 2 (audits continue past a failure)", a.Phases())
	}
}

// TestRunAuditedObservesFullRun: a real audited run over a real graph
// closes phases (several of them) and ends green, and the audit hook
// sees the same Parent the run returns.
func TestRunAuditedObservesFullRun(t *testing.T) {
	c, err := CaseByName("broom-2048")
	if err != nil {
		t.Fatal(err)
	}
	g := c.Build()
	aud := NewAuditor(g)
	var last core.Parent
	hook := aud.Hook()
	labels := core.RunAudited(g, core.DefaultOptions(), func(p core.Parent, phase string) {
		last = p
		hook(p, phase)
	})
	if err := aud.Err(); err != nil {
		t.Fatalf("audited run tripped an invariant: %v", err)
	}
	if aud.Phases() < 3 {
		t.Errorf("audited run closed only %d phases", aud.Phases())
	}
	if &last[0] != &labels[0] {
		t.Error("audit hook saw a different Parent than the run returned")
	}
	if err := CheckLabeling(g, labels.Labels(), Oracle(g)); err != nil {
		t.Errorf("audited run mislabeled: %v", err)
	}
}

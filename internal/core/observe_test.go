package core

import (
	"testing"

	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// TestRunObservedMatchesRun pins that attaching an Observer changes
// nothing about the result: the observed dispatch runs the same phase
// loops, so labels must be identical (not just equivalent — final
// compress yields min-id labels either way).
func TestRunObservedMatchesRun(t *testing.T) {
	for _, skip := range []bool{true, false} {
		g := gen.Kronecker(11, 8, gen.Graph500, 7)
		opt := Options{SkipLargest: skip, Seed: 7}
		plain := Run(g, opt)

		opt.Observer = obs.NewTracer()
		observed := Run(g, opt)
		for v := range plain {
			if plain.Get(graph.V(v)) != observed.Get(graph.V(v)) {
				t.Fatalf("skip=%v: label mismatch at %d: %d vs %d",
					skip, v, plain.Get(graph.V(v)), observed.Get(graph.V(v)))
			}
		}
	}
}

// TestRunObservedPhaseTree pins the recorded phase structure: one root,
// the configured number of neighbor rounds each followed by a compress,
// a sample pass iff skipping, the final pass, and the final compress.
func TestRunObservedPhaseTree(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 3)
	tr := obs.NewTracer()
	Run(g, Options{NeighborRounds: 3, SkipLargest: true, Observer: tr})

	spans := tr.Spans()
	want := []string{
		obs.PhaseRun,
		obs.PhaseNeighborRound, obs.PhaseCompress,
		obs.PhaseNeighborRound, obs.PhaseCompress,
		obs.PhaseNeighborRound, obs.PhaseCompress,
		obs.PhaseSample, obs.PhaseFinal, obs.PhaseFinalCompress,
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, s := range spans {
		if s.Name != want[i] {
			t.Errorf("span %d = %q, want %q", i, s.Name, want[i])
		}
		if i == 0 {
			if s.Parent != -1 {
				t.Errorf("root parent = %d, want -1", s.Parent)
			}
		} else if s.Parent != spans[0].ID {
			t.Errorf("span %d (%s) parent = %d, want root", i, s.Name, s.Parent)
		}
	}
	sample := spans[7]
	if sample.Stats.SkipRatio <= 0 || sample.Stats.SkipRatio > 1 {
		t.Errorf("sample skip ratio = %v, want in (0, 1]", sample.Stats.SkipRatio)
	}

	// Without skipping there is no sample span.
	tr2 := obs.NewTracer()
	Run(g, Options{NeighborRounds: 1, SkipLargest: false, Observer: tr2})
	for _, s := range tr2.Spans() {
		if s.Name == obs.PhaseSample {
			t.Error("sample span recorded with SkipLargest=false")
		}
	}
}

// TestRunObservedEdgeAccounting checks the span Edges counters against
// the graph itself: without skipping every arc is linked exactly once,
// in a neighbor round or in the final pass, so the link spans' Edges
// sum to the arc count. With skipping the sum must fall short of it.
func TestRunObservedEdgeAccounting(t *testing.T) {
	g := gen.Kronecker(11, 8, gen.Graph500, 5)
	for _, skip := range []bool{false, true} {
		tr := obs.NewTracer()
		Run(g, Options{SkipLargest: skip, Parallelism: 1, Seed: 5, Observer: tr})
		var linked int64
		for _, s := range tr.Spans() {
			if s.Name == obs.PhaseNeighborRound || s.Name == obs.PhaseFinal {
				linked += s.Stats.Edges
			}
		}
		switch {
		case !skip && linked != g.NumArcs():
			t.Errorf("skip=false: link spans' edges = %d, want every arc %d", linked, g.NumArcs())
		case skip && (linked <= 0 || linked >= g.NumArcs()):
			t.Errorf("skip=true: link spans' edges = %d of %d, want skipping to save work", linked, g.NumArcs())
		}
	}
}

// TestRunInstrumentedWithObserver pins that RunStats accounting and a
// caller-supplied Observer see the same run.
func TestRunInstrumentedWithObserver(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 9)
	tr := obs.NewTracer()
	opt := DefaultOptions()
	opt.Observer = tr
	_, rs := RunInstrumented(g, opt)

	var fromSpans LinkStats
	for _, s := range tr.Spans() {
		fromSpans.Calls += s.Stats.Links
		fromSpans.Iterations += s.Stats.Iters
		fromSpans.CASFails += s.Stats.CASRetries
		fromSpans.Merges += s.Stats.Merges
		if s.Stats.MaxIters > fromSpans.MaxIters {
			fromSpans.MaxIters = s.Stats.MaxIters
		}
	}
	if fromSpans != rs.Link {
		t.Errorf("span accounting %+v != RunStats.Link %+v", fromSpans, rs.Link)
	}
	if rs.MaxDepth < 1 {
		t.Errorf("MaxDepth = %d, want >= 1", rs.MaxDepth)
	}
}

func TestIncrementalAddEdges(t *testing.T) {
	inc := NewIncremental(100)
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 5, V: 5}, {U: 3, V: 4}}
	tr := obs.NewTracer()
	merged := inc.AddEdges(edges, 1, tr)
	if merged != 3 {
		t.Errorf("merged = %d, want 3 (cycle edge and self-loop merge nothing)", merged)
	}
	if got := inc.NumComponents(); got != 100-3 {
		t.Errorf("components = %d, want %d", got, 100-3)
	}
	if !inc.Connected(0, 2) || !inc.Connected(3, 4) || inc.Connected(0, 3) {
		t.Error("connectivity after AddEdges is wrong")
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Name != obs.PhaseEdgeBatch {
		t.Fatalf("spans = %+v, want one edge_batch_apply span", spans)
	}
	st := spans[0].Stats
	if st.Edges != int64(len(edges)) || st.Merges != merged {
		t.Errorf("batch stats = %+v, want Edges %d Merges %d", st, len(edges), merged)
	}
	if inc.AddEdges(nil, 1, tr) != 0 {
		t.Error("empty batch should merge nothing")
	}
}

func TestSampleFrequentElementRatio(t *testing.T) {
	p := NewParent(1000)
	// Hook everything under 0: the mode is 0 with frequency ~1.
	for v := 1; v < 1000; v++ {
		p.set(graph.V(v), 0)
	}
	mode, ratio := SampleFrequentElementRatio(p, 256, 1)
	if mode != 0 {
		t.Errorf("mode = %d, want 0", mode)
	}
	if ratio != 1 {
		t.Errorf("ratio = %v, want 1 (every entry is 0)", ratio)
	}
	if _, r := SampleFrequentElementRatio(NewParent(0), 16, 1); r != 0 {
		t.Errorf("empty parent ratio = %v, want 0", r)
	}
	if v := SampleFrequentElement(p, 256, 1); v != 0 {
		t.Errorf("wrapper mode = %d, want 0", v)
	}
}

package testkit

import (
	"bytes"
	"encoding/json"
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// stallGraph is a graph on which Afforest's neighbor sampling stalls.
// It is built with PreserveOrder, so every row keeps its input order,
// and every row starts with one neighbor repeated 8 times: u's partner
// u^1. The first neighbor round links each vertex to its partner and
// merges the pairs; the next seven link every vertex to the same
// partner again and merge nothing. That is the flat links-per-round
// curve the convergence-stall rule watches for. A chain over the even
// vertices follows in their rows, so the final pass still joins the
// pairs into one component.
func stallGraph(n int) *graph.CSR {
	var edges []graph.Edge
	for u := graph.V(0); int(u)+1 < n; u += 2 {
		for range 8 {
			edges = append(edges, graph.Edge{U: u, V: u + 1})
		}
	}
	for u := graph.V(0); int(u)+2 < n; u += 2 {
		edges = append(edges, graph.Edge{U: u, V: u + 2})
	}
	return graph.Build(edges, graph.BuildOptions{NumVertices: n, PreserveOrder: true})
}

// TestSamplingStallTripsAnomalyDetector is the end-to-end injection
// drill for the deep-observability layer. It runs the production
// Fig 5 loop, core.Run, with six neighbor rounds on stallGraph under a
// pinned deterministic schedule, with the anomaly detector and flight
// recorder wired exactly as the serve layer wires them, and requires
// that (a) every round after the first links every vertex and merges
// nothing, (b) the convergence-stall rule fires once from the spans Run
// emits, (c) the firing captures an automatic canonical flight
// snapshot, (d) the labels still match the oracle, and (e) both that
// snapshot and the final canonical dump are byte-identical across two
// replays, so a dump attached to a bug report can be reproduced
// exactly.
func TestSamplingStallTripsAnomalyDetector(t *testing.T) {
	const n, rounds = 1024, 6
	g := stallGraph(n)
	oracle := Oracle(g)

	type replay struct {
		fired    int64
		rules    map[string]int
		sink     []byte
		snapshot []byte // canonical flight dump captured at the firing
		dump     []byte // canonical flight dump after the run
		rounds   []obs.PhaseStats
	}
	run := func() replay {
		schedMu.Lock()
		defer schedMu.Unlock()
		concurrent.SetDeterministic(&concurrent.DetConfig{Seed: 99, Serial: true})
		defer concurrent.SetDeterministic(nil)
		fr := obs.NewFlightRecorder(concurrent.DefaultPool().Size(), 0)
		concurrent.DefaultPool().SetFlight(fr)
		defer concurrent.DefaultPool().SetFlight(nil)

		det := obs.NewAnomalyDetector(obs.NewRegistry())
		det.AttachFlight(fr)
		var sink bytes.Buffer
		det.SetSink(&sink)

		tr := obs.NewTracer(det, fr)
		labels := core.Run(g, core.Options{NeighborRounds: rounds, Observer: tr})
		if err := CheckLabeling(g, labels.Labels(), oracle); err != nil {
			t.Fatalf("stalled run labels: %v", err)
		}

		out := replay{
			fired:    det.Count(),
			rules:    map[string]int{},
			sink:     sink.Bytes(),
			snapshot: det.LastSnapshot(),
			dump:     fr.Snapshot(obs.DumpOptions{Canonical: true}),
		}
		for _, r := range det.Recent() {
			out.rules[r.Rule]++
		}
		for _, sp := range tr.Spans() {
			if sp.Name == obs.PhaseNeighborRound {
				out.rounds = append(out.rounds, sp.Stats)
			}
		}
		return out
	}

	a := run()
	if len(a.rounds) != rounds {
		t.Fatalf("Run emitted %d neighbor_round spans, want %d", len(a.rounds), rounds)
	}
	if a.rounds[0].Merges == 0 {
		t.Fatal("round 1 merged nothing; the partner pairs never formed")
	}
	for r, st := range a.rounds[1:] {
		if st.Links != n || st.Merges != 0 {
			t.Errorf("round %d: %d links, %d merges; want %d links and no merges (a stall)", r+2, st.Links, st.Merges, n)
		}
	}
	if a.fired != 1 || a.rules[obs.RuleConvergenceStall] != 1 {
		t.Fatalf("fired %d anomalies, rules %v; want one %s", a.fired, a.rules, obs.RuleConvergenceStall)
	}
	if len(a.snapshot) == 0 {
		t.Fatal("firing captured no flight snapshot despite AttachFlight")
	}

	// The sink got one well-formed JSONL record, naming the stall rule.
	var rec obs.AnomalyRecord
	if err := json.Unmarshal(bytes.TrimSuffix(a.sink, []byte("\n")), &rec); err != nil {
		t.Fatalf("sink record %q: %v", a.sink, err)
	}
	if rec.Rule != obs.RuleConvergenceStall {
		t.Fatalf("sink record names %q, want %s", rec.Rule, obs.RuleConvergenceStall)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(a.snapshot, []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("snapshot line is not JSON: %q", line)
		}
	}

	// Replay under the same seed: detector behaviour and both canonical
	// event streams must match byte for byte.
	b := run()
	if b.fired != a.fired {
		t.Fatalf("replay fired %d anomalies, first run fired %d", b.fired, a.fired)
	}
	if !bytes.Equal(a.snapshot, b.snapshot) {
		t.Error("firing-time flight snapshots differ across deterministic replays")
	}
	if !bytes.Equal(a.dump, b.dump) {
		t.Error("final canonical flight dumps differ across deterministic replays")
	}
}

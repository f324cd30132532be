package testkit

import (
	"bytes"
	"encoding/json"
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// TestStalledAfforestTripsAnomalyDetector is the end-to-end injection
// drill for the deep-observability layer: run the deliberately broken
// StalledAfforest under a pinned deterministic schedule with the
// anomaly detector and flight recorder wired exactly as the serve
// layer wires them, and require that (a) the convergence-stall rule
// fires, (b) the firing captures an automatic canonical flight
// snapshot, and (c) both that snapshot and the final canonical dump
// are byte-identical across two replays — so a dump attached to a bug
// report can be reproduced exactly.
func TestStalledAfforestTripsAnomalyDetector(t *testing.T) {
	g := gen.Kronecker(10, 8, gen.Graph500, 3)

	type replay struct {
		fired    int64
		rules    map[string]int
		sink     []byte
		snapshot []byte // canonical flight dump captured at the firing
		dump     []byte // canonical flight dump after the run
	}
	run := func() replay {
		concurrent.SetDeterministic(&concurrent.DetConfig{Seed: 99, Serial: true})
		defer concurrent.SetDeterministic(nil)
		fr := obs.NewFlightRecorder(concurrent.DefaultPool().Size(), 0)
		concurrent.DefaultPool().SetFlight(fr)
		defer concurrent.DefaultPool().SetFlight(nil)

		det := obs.NewAnomalyDetector(obs.NewRegistry())
		det.AttachFlight(fr)
		var sink bytes.Buffer
		det.SetSink(&sink)

		StalledAfforest(g, 0, 6, obs.NewTracer(det, fr))

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
		return out
	}

	a := run()
	if a.fired == 0 {
		t.Fatal("StalledAfforest fired no anomalies; convergence-stall rule is dead")
	}
	if a.rules[obs.RuleConvergenceStall] == 0 {
		t.Fatalf("rules fired = %v, want %s among them", a.rules, obs.RuleConvergenceStall)
	}
	if len(a.snapshot) == 0 {
		t.Fatal("firing captured no flight snapshot despite AttachFlight")
	}

	// The sink got one well-formed JSONL record per firing, and at least
	// one names the stall rule.
	lines := bytes.Split(bytes.TrimSuffix(a.sink, []byte("\n")), []byte("\n"))
	if int64(len(lines)) != a.fired {
		t.Fatalf("sink has %d records, want %d (one per firing)", len(lines), a.fired)
	}
	var sawStall bool
	for _, line := range lines {
		var rec obs.AnomalyRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("sink record %q: %v", line, err)
		}
		if rec.Rule == obs.RuleConvergenceStall {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("no sink record names convergence_stall")
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

// TestStalledAfforestLabelsAreBroken pins that the injection vehicle is
// genuinely broken — if StalledAfforest ever produced correct labels it
// could silently stop exercising the stall path. The graph is built so
// the bridge edge 4–5 is neither endpoint's first (smallest) neighbor:
// both sides link internally every round, and the two halves never
// join.
func TestStalledAfforestLabelsAreBroken(t *testing.T) {
	g := graph.FromAdjacency([][]graph.V{
		{2, 4}, // 0
		{3, 5}, // 1
		{0},    // 2
		{1},    // 3
		{0, 5}, // 4: first neighbor 0, bridge 5 never linked
		{1, 4}, // 5: first neighbor 1, bridge 4 never linked
	})
	afforest, err := LookupAlgo("afforest")
	if err != nil {
		t.Fatal(err)
	}
	want := afforest.Run(g, core.Options{Parallelism: 1, Seed: 1})
	got := StalledAfforest(g, 1, 6, nil)
	if err := SamePartition(want, got); err == nil {
		t.Fatal("StalledAfforest produced a correct partition; the injection vehicle no longer injects a fault")
	}
	// Specifically: the bridge stays uncrossed.
	if got[4] == got[5] {
		t.Errorf("bridge endpoints share label %d; first-neighbor linking should never cross 4-5", got[4])
	}
}

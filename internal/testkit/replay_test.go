package testkit

import (
	"testing"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

// naive-hook is a deliberately broken algorithm registered only by
// this test: a single min-label propagation pass over the adjacency
// with no root climbing. On a path it is correct exactly when chunks
// run in ascending vertex order, so almost every seeded chunk
// permutation breaks it — which is the point: the harness must catch
// it and the printed ScheduleID must replay the identical failure.
func init() {
	RegisterAlgo(Algo{
		Name: "naive-hook",
		Run: func(g *graph.CSR, opt core.Options) []graph.V {
			n := g.NumVertices()
			labels := make([]graph.V, n)
			for i := range labels {
				labels[i] = graph.V(i)
			}
			concurrent.ForRange(n, opt.Parallelism, 16, func(lo, hi, _ int) {
				for u := lo; u < hi; u++ {
					for _, v := range g.Neighbors(graph.V(u)) {
						lu, lv := labels[u], labels[v]
						switch {
						case lv < lu:
							labels[u] = lv
						case lu < lv:
							labels[v] = lu
						}
					}
				}
			})
			return labels
		},
	})
}

// findFailingSchedule scans seeds in serial mode (exact interleaving
// replay) until naive-hook fails on path-1024.
func findFailingSchedule(t *testing.T) (ScheduleID, error) {
	t.Helper()
	for seed := uint64(0); seed < 64; seed++ {
		id := ScheduleID{Graph: "path-1024", Algo: "naive-hook", Seed: seed, Workers: 1, Serial: true}
		if err := Replay(id); err != nil {
			return id, err
		}
	}
	t.Fatal("naive-hook survived 64 seeded schedules on path-1024 — the deterministic scheduler is not permuting chunks")
	return ScheduleID{}, nil
}

// TestReplayReproducesFailure is the harness's reason to exist: a
// failing matrix cell prints a seed tuple, and Replay of that tuple —
// including after a round-trip through the printed string — must
// re-trigger the identical failure, while a correct algorithm passes
// under the very same hostile schedule.
func TestReplayReproducesFailure(t *testing.T) {
	id, first := findFailingSchedule(t)
	t.Logf("failing schedule: %s (%v)", id, first)

	// Bit-for-bit deterministic: two more replays, same error text.
	for i := 0; i < 2; i++ {
		err := Replay(id)
		if err == nil {
			t.Fatalf("replay %d of %s did not re-trigger the failure", i+1, id)
		}
		if err.Error() != first.Error() {
			t.Fatalf("replay %d of %s produced a different failure:\n  first:  %v\n  replay: %v", i+1, id, first, err)
		}
		if _, ok := validate.AsViolation(err); !ok {
			t.Fatalf("replay failure is not a structured *validate.Violation: %v", err)
		}
	}

	// The printed form is the replay handle.
	parsed, err := ParseScheduleID(id.String())
	if err != nil {
		t.Fatalf("ParseScheduleID(%q): %v", id.String(), err)
	}
	if parsed != id {
		t.Fatalf("ScheduleID round-trip mismatch: %+v -> %q -> %+v", id, id.String(), parsed)
	}
	if err := Replay(parsed); err == nil || err.Error() != first.Error() {
		t.Fatalf("replay of parsed schedule diverged: %v", err)
	}

	// Same schedule, real algorithm: must pass.
	good := id
	good.Algo = "afforest"
	if err := Replay(good); err != nil {
		t.Fatalf("afforest failed under the schedule that broke naive-hook (%s): %v", good, err)
	}
}

// TestMatrixCatchesBrokenAlgo runs the broken algorithm through the
// differential matrix itself and checks that the reported Failure
// carries a replayable ScheduleID.
func TestMatrixCatchesBrokenAlgo(t *testing.T) {
	id, _ := findFailingSchedule(t)
	c, err := CaseByName(id.Graph)
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{Algos: []string{"naive-hook"}, Seeds: []uint64{id.Seed}, Workers: []int{1}, Mode: "serial"}
	failures := m.Run([]Case{c})
	if len(failures) == 0 {
		t.Fatal("matrix sweep over a known-failing cell reported no failures")
	}
	f := failures[0]
	if f.ID != id {
		t.Fatalf("failure carries ScheduleID %+v, want %+v", f.ID, id)
	}
	reparsed, err := ParseScheduleID(f.ID.String())
	if err != nil {
		t.Fatalf("failure's printed ScheduleID does not parse: %v", err)
	}
	if err := Replay(reparsed); err == nil {
		t.Fatal("replay of the matrix-reported schedule did not reproduce the failure")
	}
}

// TestReplayBitExact pins the deterministic-replay contract for the
// default Afforest: a pinned ScheduleID must reproduce the identical
// label array — bit for bit, not merely partition-equivalent — across
// repeated runs, in both deterministic modes.
func TestReplayBitExact(t *testing.T) {
	algo, err := LookupAlgo("afforest")
	if err != nil {
		t.Fatal(err)
	}
	graphs := []string{"path-1024", "bridged-cliques-32", "kron-10"}
	for _, name := range graphs {
		c, err := CaseByName(name)
		if err != nil {
			// Corpus names evolve; skip rather than hard-code its contents.
			t.Logf("skipping %s: %v", name, err)
			continue
		}
		g := c.Build()
		for _, serial := range []bool{true, false} {
			for _, seed := range []uint64{1, 0xbeef} {
				var first []graph.V
				for rep := 0; rep < 3; rep++ {
					labels := runPinned(g, algo, seed, serial)
					if rep == 0 {
						first = labels
						continue
					}
					for v := range labels {
						if labels[v] != first[v] {
							t.Fatalf("%s seed=%#x serial=%v: replay %d diverged at vertex %d: %d != %d",
								name, seed, serial, rep, v, labels[v], first[v])
						}
					}
				}
			}
		}
		// And the full Replay path (with audits) validates under the
		// same pinned schedules.
		for _, seed := range []uint64{1, 0xbeef} {
			id := ScheduleID{Graph: name, Algo: "afforest", Seed: seed, Workers: 2, Serial: true}
			if err := Replay(id); err != nil {
				t.Errorf("Replay(%s): %v", id, err)
			}
		}
	}
}

// runPinned executes one algorithm run under a pinned deterministic
// schedule and returns a private copy of its labels.
func runPinned(g *graph.CSR, algo Algo, seed uint64, serial bool) []graph.V {
	schedMu.Lock()
	defer schedMu.Unlock()
	concurrent.SetDeterministic(&concurrent.DetConfig{Seed: seed, Serial: serial})
	defer concurrent.SetDeterministic(nil)
	labels := algo.Run(g, core.Options{Parallelism: 2, Seed: seed})
	return append([]graph.V(nil), labels...)
}

func TestParseScheduleIDErrors(t *testing.T) {
	for _, bad := range []string{
		"graph=path-1024", // missing algo
		"algo=afforest seed=0x1 workers=1 mode=serial",   // missing graph
		"graph=g algo=a seed=zz workers=1 mode=serial",   // bad seed
		"graph=g algo=a seed=0x1 workers=x mode=serial",  // bad workers
		"graph=g algo=a seed=0x1 workers=1 mode=chaotic", // bad mode
		"graph=g algo=a seed=0x1 workers=1 mode",         // not key=value
		"graph=g algo=a flavor=vanilla",                  // unknown key
	} {
		if _, err := ParseScheduleID(bad); err == nil {
			t.Errorf("ParseScheduleID(%q) accepted malformed input", bad)
		}
	}
}

// TestReplayUnknownNames: a ScheduleID naming a graph or algorithm
// that does not exist must fail loudly, not silently pass.
func TestReplayUnknownNames(t *testing.T) {
	if err := Replay(ScheduleID{Graph: "no-such-graph", Algo: "afforest", Workers: 1}); err == nil {
		t.Error("Replay accepted an unknown corpus graph")
	}
	if err := Replay(ScheduleID{Graph: "path-1024", Algo: "no-such-algo", Workers: 1}); err == nil {
		t.Error("Replay accepted an unknown algorithm")
	}
}

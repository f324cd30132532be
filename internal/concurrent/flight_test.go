package concurrent

import (
	"bytes"
	"sync/atomic"
	"testing"

	"afforest/internal/obs"
)

// TestFlightDeterministicReplayByteIdentical pins the contract the
// anomaly snapshots rely on: under a pinned serial deterministic
// schedule, a fresh flight recorder observing the same phases and
// ForRange jobs produces a byte-identical canonical event stream on
// every replay, and a different seed produces a different stream (the
// chunk dispatch order is part of the recording).
func TestFlightDeterministicReplayByteIdentical(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()

	record := func(seed uint64) []byte {
		pl.SetDeterministic(&DetConfig{Seed: seed, Serial: true})
		defer pl.SetDeterministic(nil)
		fr := obs.NewFlightRecorder(pl.Size(), 0)
		pl.SetFlight(fr)
		defer pl.SetFlight(nil)
		tr := obs.NewTracer(fr)
		for phase := 0; phase < 3; phase++ {
			id := tr.BeginPhase(obs.PhaseNeighborRound)
			pl.ForRange(10_000, 4, 256, func(lo, hi, worker int) {})
			tr.EndPhase(id, obs.PhaseStats{Links: int64(100 - phase)})
		}
		return fr.Snapshot(obs.DumpOptions{Canonical: true})
	}

	a := record(42)
	b := record(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different canonical event streams across replays")
	}
	c := record(43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event streams; chunk order is not being recorded")
	}
	for _, kind := range []string{`"kind":"job_start"`, `"kind":"job_end"`, `"kind":"chunk_claim"`, `"kind":"phase_end"`} {
		if !bytes.Contains(a, []byte(kind)) {
			t.Errorf("canonical stream missing %s events", kind)
		}
	}
	if bytes.Contains(a, []byte(`"ts_ns"`)) || bytes.Contains(a, []byte(`"dur_ns"`)) {
		t.Error("canonical stream contains wall-clock fields; replays could never match")
	}
}

// TestFlightParallelChunkAccounting exercises the recorder under real
// worker concurrency (the -race half of the determinism story): both
// the production ticket scheduler and permuted-parallel deterministic
// mode must record exactly one chunk_claim per dispatched chunk while
// the job still covers the whole domain.
func TestFlightParallelChunkAccounting(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	fr := obs.NewFlightRecorder(pl.Size(), 0)
	pl.SetFlight(fr)
	defer pl.SetFlight(nil)

	const n, grain = 50_000, 256
	var covered atomic.Int64
	body := func(lo, hi, _ int) { covered.Add(int64(hi - lo)) }

	pl.ForRange(n, 4, grain, body)
	pl.SetDeterministic(&DetConfig{Seed: 7})
	pl.ForRange(n, 4, grain, body)
	pl.SetDeterministic(nil)

	if covered.Load() != 2*n {
		t.Fatalf("covered %d indices, want %d", covered.Load(), 2*n)
	}
	dump := fr.Snapshot(obs.DumpOptions{})
	wantChunks := 2 * ((n + grain - 1) / grain)
	if got := bytes.Count(dump, []byte(`"kind":"chunk_claim"`)); got != wantChunks {
		t.Errorf("recorded %d chunk_claim events, want %d", got, wantChunks)
	}
	if got := bytes.Count(dump, []byte(`"kind":"job_start"`)); got != 2 {
		t.Errorf("recorded %d job_start events, want 2", got)
	}
	if got := bytes.Count(dump, []byte(`"kind":"job_end"`)); got != 2 {
		t.Errorf("recorded %d job_end events, want 2", got)
	}
}

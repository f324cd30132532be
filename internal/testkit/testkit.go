// Package testkit is the correctness harness behind every algorithm in
// this repository. Afforest's claims (Lemmas 1–5, Theorems 1–2 of the
// paper) are schedule-independence claims — link/compress must reach
// the same partition under any edge order, chunk partitioning, or
// worker interleaving — so the harness makes the schedule an input:
//
//   - an adversarial graph corpus (corpus.go) of degenerate and
//     worst-case topologies random generators rarely produce;
//   - a differential Matrix runner (differential.go) that executes
//     every registered algorithm under many scheduler seeds, worker
//     counts, and both deterministic modes (serial-interleave and
//     permuted-parallel, see concurrent.DetConfig), checking
//     label-equivalence against the sequential union-find oracle;
//   - per-phase invariant audits (invariants.go) hung on
//     core.RunAudited: Invariant 1 (π(x) ≤ x, hence acyclicity),
//     compress idempotence, and partition refinement against ground
//     truth after every phase;
//   - exact replay (replay.go): every failure prints a ScheduleID seed
//     tuple, and Replay(id) re-runs the identical chunk interleaving.
//
// Final-label and mid-run invariant checks come from internal/validate.
package testkit

import "sync"

// schedMu serializes deterministic-scheduler sections. The mode lives
// on the process-wide default pool, so two goroutines enabling it
// concurrently would interleave job ordinals and destroy replayability.
var schedMu sync.Mutex

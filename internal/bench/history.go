package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"afforest/internal/obs"
)

// History is the append-only BENCH_afforest.json: one TrajectoryReport
// per recorded run, oldest first. Successive PRs append rather than
// overwrite, so the perf-trajectory gate always has a baseline
// distribution to compare against.
type History struct {
	History []*TrajectoryReport `json:"history"`
}

// LoadHistory reads a history file. A missing file yields an empty
// history; the pre-history format (one bare TrajectoryReport object) is
// read as a single-entry history, so old committed files gate without
// migration.
func LoadHistory(path string) (*History, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &History{}, nil
	}
	if err != nil {
		return nil, err
	}
	var h History
	if err := json.Unmarshal(data, &h); err == nil && h.History != nil {
		return &h, nil
	}
	var legacy TrajectoryReport
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Entries) > 0 {
		return &History{History: []*TrajectoryReport{&legacy}}, nil
	}
	return nil, fmt.Errorf("bench: %s is neither a history nor a trajectory report", path)
}

// Append adds r to the history.
func (h *History) Append(r *TrajectoryReport) { h.History = append(h.History, r) }

// WriteJSON writes the history to path, indented for diff-friendly
// commits.
func (h *History) WriteJSON(path string) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Comparable reports whether b was measured under the same
// configuration as r — same scale, seed, parallelism, and GOMAXPROCS,
// on the same CPU model — i.e. whether b's ns/edge numbers are an
// apples-to-apples baseline for r's. Commit and Go version may differ
// (that is the point of a trajectory); the measurement grid may not.
// An entry that records no CPU model predates the field and stays
// comparable.
func (r *TrajectoryReport) Comparable(b *TrajectoryReport) bool {
	return r.Scale == b.Scale && r.Seed == b.Seed &&
		r.Parallelism == b.Parallelism && r.GoMaxProcs == b.GoMaxProcs &&
		(r.CPUModel == "" || b.CPUModel == "" || r.CPUModel == b.CPUModel)
}

// GateAgainst judges the new run r against the comparable entries of h.
// History entries measured under a different configuration are skipped
// (and counted in the report's note) rather than compared — a gate with
// nothing comparable passes with every cell "new".
func (h *History) GateAgainst(r *TrajectoryReport, cfg obs.GateConfig) *obs.GateReport {
	baseline := make(map[string][]float64)
	comparable, skipped := 0, 0
	for _, b := range h.History {
		if b == r {
			continue
		}
		if !r.Comparable(b) {
			skipped++
			continue
		}
		comparable++
		for _, e := range b.Entries {
			k := e.Algorithm + "/" + e.Graph
			baseline[k] = append(baseline[k], e.NSPerEdge)
		}
	}
	cells := make([]obs.TrendCell, len(r.Entries))
	for i, e := range r.Entries {
		cells[i] = obs.TrendCell{Algorithm: e.Algorithm, Graph: e.Graph, NSPerEdge: e.NSPerEdge}
	}
	rep := obs.GateCells(cells, baseline, cfg)
	rep.BaselineRuns = comparable
	if skipped > 0 {
		rep.Note = fmt.Sprintf("%d history entries skipped (different scale/seed/parallelism/gomaxprocs/cpu model)", skipped)
	}
	return rep
}

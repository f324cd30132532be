package testkit

import (
	"fmt"
	"strconv"
	"strings"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
)

// ScheduleID is the seed tuple that pins one differential run exactly:
// which corpus graph, which algorithm, the scheduler seed, the worker
// bound, and the deterministic mode. Its String form is what a failing
// matrix run prints; feeding that string back through ParseScheduleID
// and Replay re-executes the identical chunk interleaving.
type ScheduleID struct {
	Graph   string
	Algo    string
	Seed    uint64
	Workers int
	Serial  bool
}

func (id ScheduleID) String() string {
	mode := "parallel"
	if id.Serial {
		mode = "serial"
	}
	return fmt.Sprintf("graph=%s algo=%s seed=0x%x workers=%d mode=%s",
		id.Graph, id.Algo, id.Seed, id.Workers, mode)
}

// ParseScheduleID parses the String form back into a ScheduleID.
func ParseScheduleID(s string) (ScheduleID, error) {
	var id ScheduleID
	for _, field := range strings.Fields(s) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return id, fmt.Errorf("testkit: bad schedule field %q", field)
		}
		switch key {
		case "graph":
			id.Graph = val
		case "algo":
			id.Algo = val
		case "seed":
			x, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 64)
			if err != nil {
				return id, fmt.Errorf("testkit: bad seed %q: %w", val, err)
			}
			id.Seed = x
		case "workers":
			w, err := strconv.Atoi(val)
			if err != nil {
				return id, fmt.Errorf("testkit: bad workers %q: %w", val, err)
			}
			id.Workers = w
		case "mode":
			switch val {
			case "serial":
				id.Serial = true
			case "parallel":
				id.Serial = false
			default:
				return id, fmt.Errorf("testkit: bad mode %q", val)
			}
		default:
			return id, fmt.Errorf("testkit: unknown schedule field %q", key)
		}
	}
	if id.Graph == "" || id.Algo == "" {
		return id, fmt.Errorf("testkit: schedule %q missing graph or algo", s)
	}
	return id, nil
}

// Replay regenerates the corpus graph named by id and re-runs the
// algorithm under the identical deterministic schedule, returning the
// check failure it (re-)triggers, or nil when the run validates. In
// serial mode the exact chunk interleaving of the original failing run
// is reproduced; in parallel mode the chunk dispatch order is, while
// worker interleaving remains free.
func Replay(id ScheduleID) error {
	c, err := CaseByName(id.Graph)
	if err != nil {
		return err
	}
	g := c.Build()
	oracle := Oracle(g)
	return runSchedule(g, oracle, id)
}

// runSchedule executes one pinned schedule: deterministic mode on the
// default pool for the duration of the algorithm run (graph building
// and oracle computation stay outside, so job ordinals line up), with
// per-phase audits when the algorithm exposes them, then the full
// label check against the oracle.
func runSchedule(g *graph.CSR, oracle []graph.V, id ScheduleID) error {
	algo, err := LookupAlgo(id.Algo)
	if err != nil {
		return err
	}
	schedMu.Lock()
	defer schedMu.Unlock()
	concurrent.SetDeterministic(&concurrent.DetConfig{Seed: id.Seed, Serial: id.Serial})
	defer concurrent.SetDeterministic(nil)
	opt := core.Options{Parallelism: id.Workers, Seed: id.Seed}
	var labels []graph.V
	if algo.Audited != nil {
		aud := &Auditor{oracle: oracle}
		labels = algo.Audited(g, opt, aud.Hook())
		if err := aud.Err(); err != nil {
			return err
		}
		if aud.Phases() == 0 {
			return fmt.Errorf("testkit: audited run of %q closed no phases", id.Algo)
		}
	} else {
		labels = algo.Run(g, opt)
	}
	return CheckLabeling(g, labels, oracle)
}

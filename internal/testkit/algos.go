package testkit

import (
	"fmt"
	"sync"

	"afforest/internal/baselines"
	"afforest/internal/core"
)

// Algo is one registered connected-components implementation the
// differential matrix can sweep: a roster entry (baselines.Roster), or
// a variant a test registers. Audited, when non-nil, is the same run
// with a phase-boundary hook (only the Afforest variants expose phases).
type Algo = baselines.Entry

var (
	algoMu sync.Mutex
	algos  = map[string]Algo{}
)

// RegisterAlgo adds (or replaces) an algorithm in the registry. Tests
// register deliberately broken variants to prove the harness and the
// replay path catch them.
func RegisterAlgo(a Algo) {
	algoMu.Lock()
	defer algoMu.Unlock()
	algos[a.Name] = a
}

// LookupAlgo returns the registered algorithm with the given name.
func LookupAlgo(name string) (Algo, error) {
	algoMu.Lock()
	defer algoMu.Unlock()
	a, ok := algos[name]
	if !ok {
		return Algo{}, fmt.Errorf("testkit: unknown algorithm %q", name)
	}
	return a, nil
}

// The registry starts as the roster plus Afforest with sampling off,
// a variant only the harness sweeps.
func init() {
	for _, e := range baselines.Roster() {
		RegisterAlgo(e)
	}
	RegisterAlgo(baselines.AfforestEntry("afforest-nosample", func(o *core.Options) {
		o.NeighborRounds = -1
		o.SkipLargest = false
	}))
}

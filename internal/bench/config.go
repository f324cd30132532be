// Package bench contains one runner per table and figure of the
// paper's evaluation (Section V empirics and Section VI), producing the
// same rows/series the paper reports. DESIGN.md §4 maps each experiment
// to its runner; cmd/ccbench is the CLI front end and the repository
// root's bench_test.go exposes each runner as a testing.B benchmark.
package bench

import (
	"fmt"
	"runtime"

	"afforest/internal/baselines"
	"afforest/internal/graph"
	"afforest/internal/validate"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale gives ≈2^Scale vertices per suite graph. The paper runs at
	// ≈2^27 on server hardware; the default here is laptop-sized.
	Scale int
	// Runs is the number of timed repetitions per configuration; the
	// paper uses the median of 16.
	Runs int
	// Seed drives all generators.
	Seed uint64
	// Parallelism caps worker goroutines (0 = GOMAXPROCS).
	Parallelism int
	// Validate re-checks every algorithm's labeling against the
	// sequential oracle before reporting its time.
	Validate bool
}

// DefaultConfig returns the laptop-scale defaults: scale 16 (~65k
// vertices, ~1M edges on degree-16 graphs), 5 runs.
func DefaultConfig() Config {
	return Config{Scale: 16, Runs: 5, Seed: 42, Validate: true}
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 16
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// algorithms returns the named roster entries, in order. Figures name
// their algorithms in code, so an unknown name is a bug and panics.
func algorithms(names ...string) []baselines.Entry {
	algos := make([]baselines.Entry, len(names))
	for i, name := range names {
		e, err := baselines.Lookup(name)
		if err != nil {
			panic("bench: " + err.Error())
		}
		algos[i] = e
	}
	return algos
}

// checkLabeling validates labels when cfg.Validate is set, panicking on
// failure: a benchmark must never report the timing of a wrong answer.
func checkLabeling(cfg Config, g *graph.CSR, algName string, labels []graph.V) {
	if !cfg.Validate {
		return
	}
	if err := validate.Labeling(g, labels); err != nil {
		panic(fmt.Sprintf("bench: %s produced an incorrect labeling: %v", algName, err))
	}
}

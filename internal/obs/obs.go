// Package obs is the stdlib-only observability layer for the Afforest
// runtime: a lock-free metrics registry (sharded atomic counters,
// gauges, fixed-bucket histograms with a Prometheus-text exposition
// encoder), a low-overhead span tracer that records the algorithm's
// phase tree, and the sinks that consume each closed span (JSON-lines
// event log, in-memory ring, run metrics, anomaly detector, flight
// recorder).
//
// Instrumented code opens and closes phases on a *Tracer; call sites
// nil-check it so the uninstrumented hot path stays free of counters,
// allocations, and unpredictable branches — observation cost is paid
// only when a tracer is attached. The package has no dependencies
// inside this repository, so every layer (concurrent, core, serve, cmd)
// can import it without cycles.
package obs

// SpanID identifies a phase span within one Tracer. IDs are only
// meaningful to the Tracer that issued them.
type SpanID int32

// PhaseStats is the measurement payload attached to a completed phase
// span. Fields that do not apply to a phase are zero (a compress pass
// hands no edges to Link; only the sample phase estimates a skip
// ratio).
type PhaseStats struct {
	Edges      int64   `json:"edges,omitempty"`       // arcs handed to Link during the phase
	Links      int64   `json:"links,omitempty"`       // Link invocations
	Iters      int64   `json:"iters,omitempty"`       // local Link loop iterations
	MaxIters   int64   `json:"max_iters,omitempty"`   // deepest single Link climb
	CASRetries int64   `json:"cas_retries,omitempty"` // failed hook CAS attempts
	Merges     int64   `json:"merges,omitempty"`      // component merges (batch apply)
	SkipRatio  float64 `json:"skip_ratio,omitempty"`  // sample phase: estimated mode frequency in [0,1]
	Checked    int64   `json:"checked,omitempty"`     // final pass: vertices tested by the component filter
	Skipped    int64   `json:"skipped,omitempty"`     // final pass: vertices the filter skipped entirely
}

// ObservedSkipRatio is the realized (not sampled) skip fraction of a
// final pass: Skipped over Checked, or 0 when the phase checked nothing.
// The sample phase's SkipRatio is the a-priori estimate; this is what
// the pass's per-vertex component filter actually saw.
func (s PhaseStats) ObservedSkipRatio() float64 {
	if s.Checked == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Checked)
}

// Merge folds b into s (sums, except MaxIters which takes the max and
// SkipRatio which takes the last nonzero value).
func (s *PhaseStats) Merge(b PhaseStats) {
	s.Edges += b.Edges
	s.Links += b.Links
	s.Iters += b.Iters
	s.CASRetries += b.CASRetries
	s.Merges += b.Merges
	s.Checked += b.Checked
	s.Skipped += b.Skipped
	if b.MaxIters > s.MaxIters {
		s.MaxIters = b.MaxIters
	}
	if b.SkipRatio != 0 {
		s.SkipRatio = b.SkipRatio
	}
}

// Phase names used by the instrumented Afforest runtime. The tracer
// records them verbatim; RunMetrics maps them onto registry counters.
const (
	PhaseRun           = "afforest_run"     // root span of one batch run
	PhaseNeighborRound = "neighbor_round"   // one vertex-neighbor sampling round (Fig 5 lines 2-5)
	PhaseCompress      = "compress"         // inter-round compress pass (Fig 5 lines 6-8)
	PhaseSample        = "sample_frequent"  // most-frequent-element search (Fig 5 line 10)
	PhaseFinal         = "final_skip_pass"  // skip-aware pass over remaining edges (Fig 5 lines 11-15)
	PhaseFinalCompress = "final_compress"   // final flattening pass (Fig 5 lines 16-18)
	PhaseEdgeBatch     = "edge_batch_apply" // one coalesced incremental edge batch
)

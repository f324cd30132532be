package obs

import "sync"

// RunMetrics is a Sink that folds every closed phase span into registry
// counters — the aggregate, always-on view that backs /metrics, next
// to the Tracer's per-run structural view.
type RunMetrics struct {
	runs           *Counter
	linkRounds     *Counter
	compressPasses *Counter
	finalPasses    *Counter
	samplePasses   *Counter
	linkCalls      *Counter
	linkIters      *Counter
	casRetries     *Counter
	edges          *Counter
	merges         *Counter
	skippedVerts   *Counter
	skipRatio      *Gauge
	skipObserved   *Gauge

	reg *Registry

	mu      sync.Mutex
	phaseNS map[string]*Counter
}

// NewRunMetrics binds run counters in r. Multiple RunMetrics on the
// same registry share the underlying counters (registration is
// idempotent), so per-request sinks are cheap.
func NewRunMetrics(r *Registry) *RunMetrics {
	return &RunMetrics{
		runs:           r.Counter("afforest_runs_total", "Completed Afforest runs."),
		linkRounds:     r.Counter("afforest_link_rounds_total", "Neighbor-sampling link rounds executed."),
		compressPasses: r.Counter("afforest_compress_passes_total", "Compress passes executed (including final)."),
		finalPasses:    r.Counter("afforest_final_passes_total", "Full edge passes (skip-aware final or LinkAll)."),
		samplePasses:   r.Counter("afforest_sample_passes_total", "Most-frequent-element sampling passes."),
		linkCalls:      r.Counter("afforest_link_calls_total", "Link invocations across all phases."),
		linkIters:      r.Counter("afforest_link_iterations_total", "Hook-climbing iterations inside Link."),
		casRetries:     r.Counter("afforest_link_cas_retries_total", "CAS retries inside Link."),
		edges:          r.Counter("afforest_edges_processed_total", "Edges handed to link phases."),
		merges:         r.Counter("afforest_edge_merges_total", "Edge applications that merged two components."),
		skippedVerts:   r.Counter("afforest_final_skipped_vertices_total", "Vertices the final pass skipped via the component filter."),
		skipRatio:      r.Gauge("afforest_skip_ratio", "Fraction of sampled vertices already in the largest component (last run)."),
		skipObserved:   r.Gauge("afforest_skip_ratio_observed", "Realized skip fraction of the last final pass (skipped/checked)."),
		reg:            r,
		phaseNS:        make(map[string]*Counter),
	}
}

// Emit folds the closed span into the counters.
func (m *RunMetrics) Emit(s Span) {
	m.mu.Lock()
	c := m.phaseNS[s.Name]
	if c == nil {
		c = m.reg.Counter("afforest_phase_ns_total", "Wall time spent per phase.", L("phase", s.Name))
		m.phaseNS[s.Name] = c
	}
	m.mu.Unlock()

	c.Add(s.DurNS)
	switch s.Name {
	case PhaseRun:
		m.runs.Inc()
	case PhaseNeighborRound:
		m.linkRounds.Inc()
	case PhaseCompress, PhaseFinalCompress:
		m.compressPasses.Inc()
	case PhaseFinal:
		m.finalPasses.Inc()
	case PhaseSample:
		m.samplePasses.Inc()
	}
	st := s.Stats
	m.linkCalls.Add(st.Links)
	m.linkIters.Add(st.Iters)
	m.casRetries.Add(st.CASRetries)
	m.edges.Add(st.Edges)
	m.merges.Add(st.Merges)
	m.skippedVerts.Add(st.Skipped)
	if st.Checked > 0 {
		m.skipObserved.Set(st.ObservedSkipRatio())
	}
	if st.SkipRatio != 0 {
		m.skipRatio.Set(st.SkipRatio)
	}
}

// --- Pool metrics ---

// PoolMetrics are the worker-pool utilization metrics the concurrent
// package reports into when installed via Pool.SetMetrics.
type PoolMetrics struct {
	// Busy accumulates per-worker busy nanoseconds (sharded by worker
	// id, so hot workers never contend).
	Busy *Counter
	// Chunks counts work chunks claimed from job ticket counters.
	Chunks *Counter
	// Jobs counts completed parallel jobs (ForRange invocations).
	Jobs *Counter
	// Imbalance is max-over-mean busy time across the workers of the
	// most recent job: 1.0 is a perfectly balanced pass.
	Imbalance *Gauge
	// OnJob, when non-nil, receives every completed job's imbalance
	// ratio (the value Imbalance was just set to). The anomaly
	// detector's worker-imbalance rule hooks in here. Set it before
	// installing the metrics on a pool.
	OnJob func(imbalance float64)
}

// NewPoolMetrics binds the pool metric family in r.
func NewPoolMetrics(r *Registry) *PoolMetrics {
	return &PoolMetrics{
		Busy:      r.Counter("afforest_pool_busy_ns_total", "Per-worker busy time inside parallel jobs."),
		Chunks:    r.Counter("afforest_pool_chunks_total", "Work chunks claimed by pool workers."),
		Jobs:      r.Counter("afforest_pool_jobs_total", "Parallel jobs executed by the pool."),
		Imbalance: r.Gauge("afforest_pool_imbalance_ratio", "Max-over-mean worker busy time of the last job."),
	}
}

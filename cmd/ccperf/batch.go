package main

import (
	"runtime"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/obs"
)

// batchInput is one labeling input with its oracle labels.
type batchInput struct {
	name   string
	g      *graph.CSR
	oracle []graph.V
}

// graphStats accumulates one graph's per-run numbers across a phase.
type graphStats struct {
	runNSPerEdge []float64
	phases       map[string][]float64 // per-layer metric suffix → per-run values
	jobs, busy   float64              // pool totals (traced)
	runWall      time.Duration
	imbalanceMax float64
}

// runBatch alternates core.Run on urand and kron: all time goes to the
// core and concurrent packages. One op is one round (both graphs).
func runBatch(cfg config, rec *recorder, b *box) (*phase, error) {
	ph := newPhase()
	base := heapMB()
	in, setupS, err := setupMedian(func() ([]batchInput, error) {
		return []batchInput{
			{name: "urand", g: gen.URandDegree(1<<cfg.scale, 16, cfg.seed)},
			{name: "kron", g: gen.Kronecker(cfg.scale, 16, gen.Graph500, cfg.seed)},
		}, nil
	}, func([]batchInput) {})
	if err != nil {
		return nil, err
	}
	ph.e2e["setup_s"] = setupS
	ph.layer["graph.build_s"] = setupS
	for i := range in {
		in[i].oracle = oracle(in[i].g, nil)
	}

	opt := core.DefaultOptions()
	opt.Parallelism = cfg.procs
	opt.Seed = cfg.seed
	stats := make([]graphStats, len(in))
	for i := range stats {
		stats[i].phases = make(map[string][]float64)
	}
	var pm *obs.PoolMetrics
	var imbalance float64
	if rec != nil {
		pm = obs.NewPoolMetrics(obs.NewRegistry())
		// OnJob runs on the goroutine that submitted the job, which is
		// this one: core.Run submits from its caller.
		pm.OnJob = func(r float64) { imbalance = max(imbalance, r) }
		concurrent.DefaultPool().SetMetrics(pm)
		defer concurrent.DefaultPool().SetMetrics(nil)
	}

	roundMS := make([][]float64, timedSets)
	var roundCPU []float64
	gc0 := gcPause()
	b.control()
	sets := newSetClock(cfg.seconds, b)
	for round := int64(0); !sets.done(); round++ {
		q := sets.quarter()
		var wall, cpu time.Duration
		for i := range in {
			o := opt
			var tr *obs.Tracer
			var jobs0, busy0 int64
			if rec != nil {
				tr = obs.NewTracer()
				o.Observer = tr
				jobs0, busy0 = pm.Jobs.Value(), pm.Busy.Value()
				imbalance = 0
			}
			c0 := cpuNow()
			t0 := time.Now()
			p := core.Run(in[i].g, o)
			d := time.Since(t0)
			cpu += cpuNow() - c0
			wall += d
			st := &stats[i]
			st.runNSPerEdge = append(st.runNSPerEdge, float64(d.Nanoseconds())/float64(in[i].g.NumEdges()))
			if rec != nil {
				rec.addPhaseTree(tr.Spans(), t0, round)
				for k, v := range phaseMetrics(tr.Spans(), in[i].g.NumEdges()) {
					st.phases[k] = append(st.phases[k], v)
				}
				st.jobs += float64(pm.Jobs.Value() - jobs0)
				st.busy += float64(pm.Busy.Value() - busy0)
				st.runWall += d
				st.imbalanceMax = max(st.imbalanceMax, imbalance)
			}
			ph.attempted++
			if err := checkLabels("batch/"+in[i].name, p.Labels(), in[i].oracle); err != nil {
				ph.failed++
				ph.fail(err)
			}
		}
		roundMS[q] = append(roundMS[q], ms(wall))
		roundCPU = append(roundCPU, us(cpu))
		sets.add(wall)
		sets.controls()
	}
	ph.layer["proc.gc_pause_ms"] = ms(gcPause() - gc0)
	ph.e2e["live_heap_mb"] = liveHeapMB() - base
	runtime.KeepAlive(in)

	ph.setOps(roundMS, mean(roundCPU))
	for i, st := range stats {
		g := in[i].name
		ph.layer["core.run."+g+"_ns_per_edge"] = median(st.runNSPerEdge)
		for k, v := range st.phases {
			ph.layer["core."+g+"."+k] = median(v)
		}
		if rec != nil {
			ph.layer["pool."+g+".jobs_per_run"] = st.jobs / float64(len(st.runNSPerEdge))
			ph.layer["pool."+g+".busy_frac"] = st.busy / (float64(st.runWall) * float64(cfg.procs))
			ph.layer["pool."+g+".imbalance_max"] = st.imbalanceMax
		}
	}
	return ph, nil
}

// phaseMetrics digests one traced core.Run on a graph of m edges into
// the core.<g>.* metric suffixes. Per-edge phase times divide by m, so
// the phases add up to the run's ns per edge.
func phaseMetrics(spans []obs.Span, m int64) map[string]float64 {
	var nrNS, compressNS, sampleNS, finalNS, finalCompressNS int64
	var final, all obs.PhaseStats
	var skip float64
	for _, s := range spans {
		all.Merge(s.Stats)
		switch s.Name {
		case obs.PhaseNeighborRound:
			nrNS += s.DurNS
		case obs.PhaseCompress:
			compressNS += s.DurNS
		case obs.PhaseSample:
			sampleNS += s.DurNS
			skip = s.Stats.SkipRatio
		case obs.PhaseFinal:
			finalNS += s.DurNS
			final.Merge(s.Stats)
		case obs.PhaseFinalCompress:
			finalCompressNS += s.DurNS
		}
	}
	return map[string]float64{
		"neighbor_round_ns_per_edge": ratio(float64(nrNS), float64(m)),
		"compress_ms":                float64(compressNS) / 1e6,
		"sample_us":                  float64(sampleNS) / 1e3,
		"final_ns_per_edge":          ratio(float64(finalNS), float64(m)),
		"final_compress_ms":          float64(finalCompressNS) / 1e6,
		"skip_ratio":                 skip,
		"final_edge_frac":            ratio(float64(final.Merges), float64(final.Links)),
		"cas_retry_per_link":         ratio(float64(all.CASRetries), float64(all.Links)),
	}
}

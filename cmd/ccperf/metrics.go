package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; "op" is the workload's unit of work (see
// opNames), so the same name means "what this workload's user waits
// for" on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"op_p50_ms", "ms"},
}

// opNames says what one op is on each workload.
var opNames = map[string]string{
	"batch":   "one labeling round: core.Run on urand, then on kron",
	"ingest":  "POST /edges, from its due time to the 200 answer",
	"query":   "GET of any read class, from its due time to the 200 answer",
	"cluster": "Router.LoadGraph of urand into a fresh 3-shard cluster",
}

// graphNames are the two batch inputs the core and pool metrics are
// split by.
var graphNames = []string{"urand", "kron"}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"core", "serve", "wal", "cluster", "shard"}

// perLayer lists every per-layer metric. A workload that does not
// exercise a layer reports 0 for that layer's metrics.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, g := range graphNames {
		d = append(d,
			metricDef{"core.run." + g + "_ns_per_edge", "ns/edge"},
			metricDef{"core." + g + ".neighbor_round_ns_per_edge", "ns/edge"},
			metricDef{"core." + g + ".compress_ms", "ms"},
			metricDef{"core." + g + ".sample_us", "us"},
			metricDef{"core." + g + ".final_ns_per_edge", "ns/edge"},
			metricDef{"core." + g + ".final_compress_ms", "ms"},
			metricDef{"core." + g + ".skip_ratio", "ratio"},
			metricDef{"core." + g + ".final_edge_frac", "ratio"},
			metricDef{"core." + g + ".cas_retry_per_link", "ratio"},
		)
	}
	for _, g := range graphNames {
		d = append(d,
			metricDef{"pool." + g + ".jobs_per_run", "count"},
			metricDef{"pool." + g + ".busy_frac", "ratio"},
			metricDef{"pool." + g + ".imbalance_max", "ratio"},
		)
	}
	d = append(d,
		metricDef{"incr.apply_us_per_batch_p50", "us"},
		metricDef{"incr.apply_ns_per_edge", "ns/edge"},
		metricDef{"incr.merges_per_edge", "ratio"},
		metricDef{"serve.edges_handler_ms_p50", "ms"},
		metricDef{"serve.edges_handler_ms_p99", "ms"},
		metricDef{"serve.read_handler_us_p50", "us"},
		metricDef{"serve.read_handler_us_p99", "us"},
		metricDef{"serve.batch_wait_ms_p50", "ms"},
		metricDef{"serve.batch_edges_mean", "count"},
		metricDef{"serve.batches_per_s", "1/s"},
		metricDef{"serve.snapshot_refresh_ms", "ms"},
		metricDef{"serve.snapshots", "count"},
		metricDef{"wal.write_us_p50", "us"},
		metricDef{"wal.fsync_us_p50", "us"},
		metricDef{"wal.fsync_us_p99", "us"},
		metricDef{"wal.fsyncs_per_s", "1/s"},
		metricDef{"wal.edges_per_fsync", "count"},
		metricDef{"wal.bytes_per_edge", "B/edge"},
		metricDef{"prov.records", "count"},
		metricDef{"prov.bytes_per_record", "B"},
		metricDef{"prov.explain_handler_us_p50", "us"},
		metricDef{"prov.witness_hops_mean", "count"},
		metricDef{"cluster.boot_ms", "ms"},
		metricDef{"cluster.rounds_per_load", "count"},
		metricDef{"cluster.messages_per_load", "count"},
		metricDef{"cluster.cut_edge_frac", "ratio"},
		metricDef{"cluster.wire_bytes_per_edge", "B/edge"},
		metricDef{"cluster.exchange_ms_p50", "ms"},
		metricDef{"cluster.rpc_edges_ms", "ms"},
		metricDef{"cluster.rpc_outbox_ms", "ms"},
		metricDef{"cluster.rpc_ingest_ms", "ms"},
		metricDef{"cluster.rpc_absorb_ms", "ms"},
		metricDef{"cluster.shard_work_frac", "ratio"},
		metricDef{"gen.late_us_p50", "us"},
		metricDef{"gen.late_us_p99", "us"},
		metricDef{"gen.max_inflight", "count"},
		metricDef{"box.gather_ns", "ns"},
		metricDef{"box.spin_ns", "ns"},
		metricDef{"box.drift_pct", "%"},
		metricDef{"proc.peak_rss_mb", "MiB"},
		metricDef{"proc.cpu_us_per_op", "us"},
		metricDef{"op.p50_all_ms", "ms"},
		metricDef{"op.p90_ms", "ms"},
		metricDef{"op.p99_ms", "ms"},

		metricDef{"proc.gc_pause_ms", "ms"},
		metricDef{"graph.build_s", "s"},
	)
	for _, l := range selfLayers {
		d = append(d, metricDef{l + ".self_ms", "ms"})
	}
	for _, m := range endToEnd {
		d = append(d, metricDef{"overhead." + m.name, m.unit})
	}
	return d
}()

// metrics maps a metric name to its value.
type metrics map[string]float64

// setOps records the op latencies (ms), grouped by the quarter of the
// timed phase each op started in, and the CPU time per op (µs).
//
// op_p50_ms is the lowest of the quarters' medians. On a shared VM a
// noisy neighbour can slow a whole quarter by tens of percent; the
// quietest quarter is the one that reflects the code. The tails and the
// CPU cost cover every op and are per-layer: their run-to-run spread was
// too wide for an end-to-end bound (see README.md).
func (p *phase) setOps(quarters [][]float64, cpuUSPerOp float64) {
	var all []float64
	best := math.Inf(1)
	for _, q := range quarters {
		if len(q) > 0 {
			best = min(best, median(q))
			all = append(all, q...)
		}
	}
	if len(all) == 0 {
		best = 0 // runPhase rejects the phase
	}
	p.e2e["op_p50_ms"] = best
	p.layer["op.p50_all_ms"] = median(all)
	p.layer["op.p90_ms"] = quantile(all, 0.90)
	p.layer["op.p99_ms"] = quantile(all, 0.99)
	p.layer["proc.cpu_us_per_op"] = cpuUSPerOp
}

// quarterOf returns which quarter of a phase of the given length the
// offset t falls in.
func quarterOf(t, length time.Duration) int {
	return min(int(4*t/length), 3)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default), or 0 for no
// samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms, us and secs convert a duration to float milliseconds,
// microseconds and seconds.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }

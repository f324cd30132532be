package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// The anomaly detector watches closed phase spans and a few direct
// feeds for the specific ways an Afforest deployment goes wrong: link
// rounds that stop converging, a sampled skip ratio too small for
// Theorem 3's skipping argument to pay off, worker imbalance that
// defeats the edge-balanced scheduler, write-latency spikes (the
// serve layer feeds it the POST /edges handler time, batch wait
// included), and the cluster, durability and provenance rules below.
// Each rule firing increments afforest_anomalies_total{rule=...},
// appends a structured JSONL record to the sink, and — when a flight
// recorder is attached — captures an automatic canonical snapshot of
// the last few thousand per-worker events leading up to the firing.

// Anomaly rule names (the rule label on afforest_anomalies_total and
// the "rule" field of every record).
const (
	RuleConvergenceStall  = "convergence_stall"
	RuleSkipRatioCollapse = "skip_ratio_collapse"
	RuleWorkerImbalance   = "worker_imbalance"
	RuleLatencySpike      = "latency_spike"

	// Cluster rules, fed by the router's BSP exchange loop.
	RuleExchangeRoundBlowup = "exchange_round_blowup"
	RuleShardLag            = "shard_lag"
	RuleGhostChurn          = "ghost_churn"
	RuleWireErrorBurst      = "wire_error_burst"

	// Durability rules, fed by the serve layer's WAL.
	RuleWALLag           = "wal_lag"
	RuleReplayDivergence = "replay_divergence"

	// Provenance rule, fed by /explain witness-path depths.
	RuleExplainDepthBlowup = "explain_depth_blowup"
)

// Rule thresholds. Each rule's detail text names the bound it crossed.
const (
	// convergence_stall: a neighbor round whose link count fails to drop
	// at least stallDecay below the previous round's is stalled;
	// stallRounds stalled rounds in a row fire.
	stallDecay  = 0.05
	stallRounds = 3
	// skip_ratio_collapse: a sample phase reporting a nonzero ratio below
	// skipRatioMin (Theorem 3's precondition — a dominant intermediate
	// component — is failing).
	skipRatioMin = 0.10
	// worker_imbalance: the largest healthy max-over-mean worker busy
	// ratio per job.
	imbalanceMax = 8.0
	// latency_spike: one sample above latencyFactor times the running
	// mean, armed after latencyWarmup samples.
	latencyFactor = 16.0
	latencyWarmup = 32
	// exchange_round_blowup: one exchange taking more than
	// roundBlowupFactor times the trailing median round count, armed
	// after roundBlowupWarmup exchanges.
	roundBlowupFactor = 4.0
	roundBlowupWarmup = 4
	// shard_lag: one shard's span of a round above shardLagFactor times
	// the round's median across shards.
	shardLagFactor = 8.0
	// ghost_churn: a round past ghostChurnRound still absorbing more than
	// ghostChurnRatio of the first round's absorb merges — ghost labels
	// that keep churning instead of converging.
	ghostChurnRatio = 0.10
	ghostChurnRound = 3
	// wire_error_burst: wireErrorBurst shard RPC errors within
	// wireErrorWindow.
	wireErrorBurst  = 3
	wireErrorWindow = time.Second
	// wal_lag: the log's durable position trailing its appended position
	// by more than either bound — acknowledged batches are exposed to a
	// crash (the -wal-fsync=none regime, or an fsync path that stopped
	// keeping up).
	walLagBytes   = 16 << 20
	walLagRecords = 4096
	// explain_depth_blowup: one witness path above witnessDepthFactor
	// times the running mean depth, armed after witnessDepthWarmup
	// answers. Union-by-size keeps typical witnesses short, so a blowup
	// means a pathological merge chain (or a forest rebuilt from an
	// adversarial replay order).
	witnessDepthFactor = 8.0
	witnessDepthWarmup = 16
	// anomalyMinInterval rate-limits each rule: after a firing, the same
	// rule stays quiet this long.
	anomalyMinInterval = time.Second
)

// AnomalyRecord is one rule firing.
type AnomalyRecord struct {
	Seq    uint64  `json:"seq"`
	TimeNS int64   `json:"time_ns,omitempty"` // wall clock, omitted from the retained ring's canonical uses
	Rule   string  `json:"rule"`
	Detail string  `json:"detail"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
}

// anomalyKeep is how many recent records the detector retains for
// /stats.
const anomalyKeep = 64

// AnomalyDetector evaluates the rules above. It is a Sink for the phase
// rules (convergence_stall, skip_ratio_collapse) and takes direct
// Observe* feeds for the rest. It is safe for concurrent use (the serve
// layer's batcher emits spans from its own goroutine while the latency
// tap fires from handlers).
type AnomalyDetector struct {
	total   *Counter
	byRule  map[string]*Counter
	reg     *Registry
	countMu sync.Mutex

	mu        sync.Mutex
	sink      io.Writer
	flight    *FlightRecorder
	snapFn    func() []byte // overrides the flight snapshot when set
	snapshot  []byte        // canonical dump captured at the last firing
	recent    []AnomalyRecord
	seq       uint64
	lastFire  map[string]time.Time
	prevLinks int64
	stallRun  int
	latency   ewmaBaseline
	depth     ewmaBaseline

	// cluster-rule state
	exchHist   []float64   // trailing exchange round counts (non-fired)
	churnFirst int64       // round-1 absorb merges of the current exchange
	wireErrs   []time.Time // recent wire error times within the window

	// Copies of anomalyMinInterval and wireErrorWindow, so in-package
	// tests can disable the rate limit or stretch the window.
	minInterval time.Duration
	wireWindow  time.Duration
}

// NewAnomalyDetector builds a detector with counters bound in reg (nil
// means no counters).
func NewAnomalyDetector(reg *Registry) *AnomalyDetector {
	d := &AnomalyDetector{
		reg:         reg,
		byRule:      make(map[string]*Counter),
		lastFire:    make(map[string]time.Time),
		minInterval: anomalyMinInterval,
		wireWindow:  wireErrorWindow,
	}
	if reg != nil {
		d.total = reg.Counter("afforest_anomalies_total", "Anomaly rule firings.")
	}
	return d
}

// SetSink directs each firing's JSONL record to w (nil disables).
func (d *AnomalyDetector) SetSink(w io.Writer) {
	d.mu.Lock()
	d.sink = w
	d.mu.Unlock()
}

// AttachFlight makes every firing capture a canonical flight snapshot
// from f (nil detaches).
func (d *AnomalyDetector) AttachFlight(f *FlightRecorder) {
	d.mu.Lock()
	d.flight = f
	d.mu.Unlock()
}

// SetSnapshotFunc overrides the firing snapshot source: when set, fn is
// called instead of the attached flight recorder (the cluster router
// installs its canonical merged-timeline builder here). fn must not
// call back into the detector and must not take locks the firing call
// path may hold — the router's builder reads only the wire-trace
// recorder, never router state. nil restores the flight snapshot.
func (d *AnomalyDetector) SetSnapshotFunc(fn func() []byte) {
	d.mu.Lock()
	d.snapFn = fn
	d.mu.Unlock()
}

// LastSnapshot returns the flight snapshot captured at the most recent
// firing (nil when none fired since AttachFlight).
func (d *AnomalyDetector) LastSnapshot() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshot
}

// Recent returns the retained firings, oldest first (empty, never nil,
// so /stats renders an array).
func (d *AnomalyDetector) Recent() []AnomalyRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append(make([]AnomalyRecord, 0, len(d.recent)), d.recent...)
}

// Count returns the total firings (0 when the detector has no
// registry).
func (d *AnomalyDetector) Count() int64 {
	if d.total == nil {
		return 0
	}
	return d.total.Value()
}

// ruleCounter returns the per-rule labeled counter, creating it on
// first firing.
func (d *AnomalyDetector) ruleCounter(rule string) *Counter {
	if d.reg == nil {
		return nil
	}
	d.countMu.Lock()
	defer d.countMu.Unlock()
	c := d.byRule[rule]
	if c == nil {
		c = d.reg.Counter("afforest_anomalies_total", "Anomaly rule firings.", L("rule", rule))
		d.byRule[rule] = c
	}
	return c
}

// fire records one rule firing: counter, JSONL record, flight
// snapshot. Callers hold no detector lock.
func (d *AnomalyDetector) fire(rule, detail string, value, limit float64) {
	now := time.Now()
	d.mu.Lock()
	if d.minInterval > 0 {
		if last, ok := d.lastFire[rule]; ok && now.Sub(last) < d.minInterval {
			d.mu.Unlock()
			return
		}
	}
	d.lastFire[rule] = now
	d.seq++
	rec := AnomalyRecord{
		Seq: d.seq, TimeNS: now.UnixNano(),
		Rule: rule, Detail: detail, Value: value, Limit: limit,
	}
	d.recent = append(d.recent, rec)
	if len(d.recent) > anomalyKeep {
		d.recent = d.recent[len(d.recent)-anomalyKeep:]
	}
	sink, fl, snapFn := d.sink, d.flight, d.snapFn
	switch {
	case snapFn != nil:
		d.snapshot = snapFn()
	case fl != nil:
		d.snapshot = fl.Snapshot(DumpOptions{Canonical: true})
	}
	d.mu.Unlock()

	if c := d.ruleCounter(rule); c != nil {
		c.Inc()
	}
	if d.total != nil {
		d.total.Inc()
	}
	if sink != nil {
		if b, err := json.Marshal(rec); err == nil {
			sink.Write(append(b, '\n'))
		}
	}
}

// --- phase spans ---

// Emit feeds the convergence-stall and skip-ratio rules. A closed run
// span resets the stall streak, so the rounds of two runs never add up.
func (d *AnomalyDetector) Emit(s Span) {
	switch s.Name {
	case PhaseRun:
		d.mu.Lock()
		d.prevLinks, d.stallRun = 0, 0
		d.mu.Unlock()
	case PhaseNeighborRound:
		d.observeRound(s.Stats.Links)
	case PhaseSample:
		if r := s.Stats.SkipRatio; r > 0 && r < skipRatioMin {
			d.fire(RuleSkipRatioCollapse,
				fmt.Sprintf("sampled skip ratio %.3f below %.3f: no dominant intermediate component, final-pass skipping will not pay off",
					r, skipRatioMin),
				r, skipRatioMin)
		}
	}
}

// observeRound feeds one neighbor round's link count to the
// convergence-stall rule.
func (d *AnomalyDetector) observeRound(links int64) {
	d.mu.Lock()
	if d.prevLinks > 0 && float64(links) > float64(d.prevLinks)*(1-stallDecay) {
		d.stallRun++
	} else {
		d.stallRun = 0
	}
	d.prevLinks = links
	stalled := d.stallRun
	if stalled >= stallRounds {
		d.stallRun = 0
	}
	d.mu.Unlock()

	if stalled >= stallRounds {
		d.fire(RuleConvergenceStall,
			fmt.Sprintf("links/round not decaying: %d rounds within %.0f%% of previous (last %d links)",
				stalled, stallDecay*100, links),
			float64(links), stallDecay)
	}
}

// --- direct feeds ---

// ObserveImbalance feeds the worker-imbalance rule with one job's
// max-over-mean busy ratio (the pool reports it per job through
// PoolMetrics.OnJob).
func (d *AnomalyDetector) ObserveImbalance(ratio float64) {
	if ratio > imbalanceMax {
		d.fire(RuleWorkerImbalance,
			fmt.Sprintf("job max-over-mean worker busy ratio %.2f exceeds %.2f", ratio, imbalanceMax),
			ratio, imbalanceMax)
	}
}

// ewmaBaseline is the running mean a spike rule measures each sample
// against: an EWMA with alpha 1/16. Spikes are kept out of the mean, so
// one outlier does not drag the baseline up and a sustained blowup
// stays loud.
type ewmaBaseline struct {
	mean float64
	n    int
}

// observe reports whether x exceeds factor times the mean, once warmup
// samples have armed it, and returns the mean it compared against.
// Samples that do not spike update the mean.
func (b *ewmaBaseline) observe(x, factor float64, warmup int) (spike bool, mean float64) {
	mean = b.mean
	spike = b.n >= warmup && mean > 0 && x > factor*mean
	if !spike {
		if b.n == 0 {
			b.mean = x
		} else {
			b.mean = mean + (x-mean)/16
		}
		b.n++
	}
	return spike, mean
}

// ObserveLatency feeds the latency-spike rule with one sample in
// nanoseconds. The serve layer taps it from the POST /edges handler's
// latency recorder, so a sample is the whole write: batch wait, WAL
// append and apply.
func (d *AnomalyDetector) ObserveLatency(ns float64) {
	d.mu.Lock()
	spike, mean := d.latency.observe(ns, latencyFactor, latencyWarmup)
	d.mu.Unlock()

	if spike {
		d.fire(RuleLatencySpike,
			fmt.Sprintf("write latency %.0fns is %.1fx the running mean %.0fns", ns, ns/mean, mean),
			ns, latencyFactor*mean)
	}
}

// ObserveWitnessDepth feeds the explain-depth-blowup rule with one
// /explain answer's witness hop count (non-positive depths are
// ignored).
func (d *AnomalyDetector) ObserveWitnessDepth(depth int) {
	if depth <= 0 {
		return
	}
	x := float64(depth)
	d.mu.Lock()
	blowup, mean := d.depth.observe(x, witnessDepthFactor, witnessDepthWarmup)
	d.mu.Unlock()

	if blowup {
		d.fire(RuleExplainDepthBlowup,
			fmt.Sprintf("witness path of %d hops is %.1fx the running mean depth %.1f", depth, x/mean, mean),
			x, witnessDepthFactor*mean)
	}
}

// --- cluster feeds ---

// exchHistKeep bounds the trailing exchange-round-count window the
// blowup rule takes its median over.
const exchHistKeep = 16

// ObserveExchange feeds the exchange-round-blowup rule with one
// completed BSP exchange's round count. The rule arms after
// roundBlowupWarmup healthy exchanges and fires when an exchange takes
// more than roundBlowupFactor times the trailing median; fired samples
// are kept out of the window so a sustained blowup cannot drag the
// baseline up and silence itself.
func (d *AnomalyDetector) ObserveExchange(rounds int) {
	r := float64(rounds)
	d.mu.Lock()
	med := Median(d.exchHist)
	blowup := len(d.exchHist) >= roundBlowupWarmup && med > 0 && r > roundBlowupFactor*med
	if !blowup {
		d.exchHist = append(d.exchHist, r)
		if len(d.exchHist) > exchHistKeep {
			d.exchHist = d.exchHist[len(d.exchHist)-exchHistKeep:]
		}
	}
	d.mu.Unlock()

	if blowup {
		d.fire(RuleExchangeRoundBlowup,
			fmt.Sprintf("exchange took %d rounds, over %.0fx the trailing median %.1f", rounds, roundBlowupFactor, med),
			r, roundBlowupFactor*med)
	}
}

// ObserveRoundLag feeds the shard-lag rule with one exchange round's
// per-shard RPC spans (nanoseconds, indexed by shard id; zero entries —
// departed shards — are ignored). Fires when the slowest shard's span
// exceeds shardLagFactor times the round's median across shards.
func (d *AnomalyDetector) ObserveRoundLag(round int, shardNS []int64) {
	live := make([]float64, 0, len(shardNS))
	maxNS, maxShard := int64(0), -1
	for id, ns := range shardNS {
		if ns <= 0 {
			continue
		}
		live = append(live, float64(ns))
		if ns > maxNS {
			maxNS, maxShard = ns, id
		}
	}
	if len(live) < 2 {
		return
	}
	med := Median(live)
	if med > 0 && float64(maxNS) > shardLagFactor*med {
		d.fire(RuleShardLag,
			fmt.Sprintf("round %d: shard %d span %dns is over %.0fx the round median %.0fns",
				round, maxShard, maxNS, shardLagFactor, med),
			float64(maxNS), shardLagFactor*med)
	}
}

// ObserveExchangeRound feeds the ghost-churn rule with one round's
// absorb-phase merge count. Round 1 sets the exchange's baseline; a
// round past ghostChurnRound still absorbing more than ghostChurnRatio
// of that baseline means ghost labels keep churning instead of
// converging geometrically.
func (d *AnomalyDetector) ObserveExchangeRound(round int, absorbMerged int64) {
	d.mu.Lock()
	if round == 1 {
		d.churnFirst = absorbMerged
	}
	first := d.churnFirst
	d.mu.Unlock()

	if round > ghostChurnRound && first > 0 && float64(absorbMerged) > ghostChurnRatio*float64(first) {
		d.fire(RuleGhostChurn,
			fmt.Sprintf("round %d absorb still merged %d labels, over %.0f%% of round 1's %d",
				round, absorbMerged, ghostChurnRatio*100, first),
			float64(absorbMerged), ghostChurnRatio*float64(first))
	}
}

// --- durability feeds ---

// ObserveWALLag feeds the wal_lag rule with the write-ahead log's
// current exposure: how many acknowledged records (lsnDelta) and bytes
// (byteDelta) are appended but not yet known durable. Fires when either
// exceeds its bound (walLagBytes, walLagRecords).
func (d *AnomalyDetector) ObserveWALLag(lsnDelta, byteDelta int64) {
	switch {
	case byteDelta > walLagBytes:
		d.fire(RuleWALLag,
			fmt.Sprintf("%d bytes (%d records) appended but not durable, over the %d-byte bound", byteDelta, lsnDelta, walLagBytes),
			float64(byteDelta), walLagBytes)
	case lsnDelta > walLagRecords:
		d.fire(RuleWALLag,
			fmt.Sprintf("%d records (%d bytes) appended but not durable, over the %d-record bound", lsnDelta, byteDelta, walLagRecords),
			float64(lsnDelta), walLagRecords)
	}
}

// ObserveReplayDivergence feeds the replay_divergence rule: startup
// replay found damage to supposedly-durable history (a mid-log torn
// segment, an uncovered LSN gap, corruption below the snapshot
// watermark). Always fires — there is no threshold on losing history.
func (d *AnomalyDetector) ObserveReplayDivergence(detail string) {
	d.fire(RuleReplayDivergence, detail, 1, 0)
}

// ObserveWireError feeds the wire-error-burst rule with one failed
// shard RPC. Fires when wireErrorBurst errors land within
// wireErrorWindow.
func (d *AnomalyDetector) ObserveWireError(err error) {
	if err == nil {
		return
	}
	now := time.Now()
	d.mu.Lock()
	cut := 0
	for cut < len(d.wireErrs) && now.Sub(d.wireErrs[cut]) > d.wireWindow {
		cut++
	}
	d.wireErrs = append(d.wireErrs[cut:], now)
	burst := len(d.wireErrs) >= wireErrorBurst
	n := len(d.wireErrs)
	if burst {
		d.wireErrs = d.wireErrs[:0] // one firing per burst
	}
	d.mu.Unlock()

	if burst {
		d.fire(RuleWireErrorBurst,
			fmt.Sprintf("%d wire errors within %s (last: %v)", n, d.wireWindow, err),
			float64(n), wireErrorBurst)
	}
}

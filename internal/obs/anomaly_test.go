package obs

import (
	"errors"
	"testing"
)

// TestAnomalyRuleThresholds pins every rule's firing point: each case
// feeds a fresh detector the same warmup, then one probe just inside
// the threshold (must stay quiet) or just past it (must fire that rule
// and nothing else).
func TestAnomalyRuleThresholds(t *testing.T) {
	wireErr := errors.New("connection reset")
	rounds := func(links ...int64) func(d *AnomalyDetector) {
		return func(d *AnomalyDetector) {
			tr := NewTracer(d)
			root := tr.BeginPhase(PhaseRun)
			for _, l := range links {
				tr.EndPhase(tr.BeginPhase(PhaseNeighborRound), PhaseStats{Links: l})
			}
			tr.EndPhase(root, PhaseStats{})
		}
	}
	sample := func(d *AnomalyDetector, ratio float64) {
		tr := NewTracer(d)
		tr.EndPhase(tr.BeginPhase(PhaseSample), PhaseStats{SkipRatio: ratio})
	}
	cases := []struct {
		rule   string
		warmup func(d *AnomalyDetector)
		quiet  func(d *AnomalyDetector) // nil: the rule has no threshold
		fire   func(d *AnomalyDetector)
	}{
		{
			// Three consecutive rounds keeping more than 95% of the
			// previous round's links stall; a 5% decay does not.
			rule:  RuleConvergenceStall,
			quiet: rounds(2000, 1899, 1804, 1713),
			fire:  rounds(2000, 1901, 1806, 1716),
		},
		{
			rule: RuleSkipRatioCollapse,
			quiet: func(d *AnomalyDetector) {
				sample(d, 0.10)
				sample(d, 0) // no estimate
			},
			fire: func(d *AnomalyDetector) { sample(d, 0.099) },
		},
		{
			rule:  RuleWorkerImbalance,
			quiet: func(d *AnomalyDetector) { d.ObserveImbalance(8) },
			fire:  func(d *AnomalyDetector) { d.ObserveImbalance(8.01) },
		},
		{
			// Arms after 32 samples; fires above 16x the running mean.
			rule: RuleLatencySpike,
			warmup: func(d *AnomalyDetector) {
				for i := 0; i < 32; i++ {
					d.ObserveLatency(1000)
				}
			},
			quiet: func(d *AnomalyDetector) { d.ObserveLatency(16000) },
			fire:  func(d *AnomalyDetector) { d.ObserveLatency(16001) },
		},
		{
			// Arms after 4 exchanges; fires above 4x the trailing median.
			rule: RuleExchangeRoundBlowup,
			warmup: func(d *AnomalyDetector) {
				for i := 0; i < 4; i++ {
					d.ObserveExchange(2)
				}
			},
			quiet: func(d *AnomalyDetector) { d.ObserveExchange(8) },
			fire:  func(d *AnomalyDetector) { d.ObserveExchange(9) },
		},
		{
			rule:  RuleShardLag,
			quiet: func(d *AnomalyDetector) { d.ObserveRoundLag(1, []int64{100, 100, 800}) },
			fire:  func(d *AnomalyDetector) { d.ObserveRoundLag(1, []int64{100, 100, 801}) },
		},
		{
			// Rounds past 3 may absorb at most 10% of round 1's merges.
			rule: RuleGhostChurn,
			warmup: func(d *AnomalyDetector) {
				d.ObserveExchangeRound(1, 1000)
				d.ObserveExchangeRound(3, 1000) // not yet armed
			},
			quiet: func(d *AnomalyDetector) { d.ObserveExchangeRound(4, 100) },
			fire:  func(d *AnomalyDetector) { d.ObserveExchangeRound(4, 101) },
		},
		{
			rule: RuleWireErrorBurst,
			warmup: func(d *AnomalyDetector) {
				d.ObserveWireError(nil) // nil errors do not count
				d.ObserveWireError(wireErr)
			},
			quiet: func(d *AnomalyDetector) { d.ObserveWireError(wireErr) },
			fire: func(d *AnomalyDetector) {
				d.ObserveWireError(wireErr)
				d.ObserveWireError(wireErr)
			},
		},
		{
			rule:  RuleWALLag,
			quiet: func(d *AnomalyDetector) { d.ObserveWALLag(4096, 16<<20) },
			fire:  func(d *AnomalyDetector) { d.ObserveWALLag(4097, 0) },
		},
		{
			rule:  RuleWALLag,
			quiet: func(d *AnomalyDetector) { d.ObserveWALLag(0, 16<<20) },
			fire:  func(d *AnomalyDetector) { d.ObserveWALLag(0, 16<<20+1) },
		},
		{
			rule: RuleReplayDivergence,
			fire: func(d *AnomalyDetector) { d.ObserveReplayDivergence("torn segment 3") },
		},
		{
			// Arms after 16 answers; fires above 8x the running mean.
			rule: RuleExplainDepthBlowup,
			warmup: func(d *AnomalyDetector) {
				for i := 0; i < 16; i++ {
					d.ObserveWitnessDepth(2)
				}
				d.ObserveWitnessDepth(0) // no witness: ignored
			},
			quiet: func(d *AnomalyDetector) { d.ObserveWitnessDepth(16) },
			fire:  func(d *AnomalyDetector) { d.ObserveWitnessDepth(17) },
		},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.rule] = true
		probe := func(feed func(d *AnomalyDetector)) []AnomalyRecord {
			d, _ := newTestDetector()
			if c.warmup != nil {
				c.warmup(d)
				if rec := d.Recent(); len(rec) != 0 {
					t.Fatalf("%s: warmup fired %+v", c.rule, rec)
				}
			}
			feed(d)
			return d.Recent()
		}
		if c.quiet != nil {
			if rec := probe(c.quiet); len(rec) != 0 {
				t.Errorf("%s: fired just inside its threshold: %+v", c.rule, rec)
			}
		}
		rec := probe(c.fire)
		if len(rec) != 1 || rec[0].Rule != c.rule {
			t.Errorf("%s: just past its threshold fired %+v, want one %s record", c.rule, rec, c.rule)
		}
	}
	for _, rule := range []string{
		RuleConvergenceStall, RuleSkipRatioCollapse, RuleWorkerImbalance, RuleLatencySpike,
		RuleExchangeRoundBlowup, RuleShardLag, RuleGhostChurn, RuleWireErrorBurst,
		RuleWALLag, RuleReplayDivergence, RuleExplainDepthBlowup,
	} {
		if !covered[rule] {
			t.Errorf("rule %s has no threshold case", rule)
		}
	}
}

// TestConvergenceStallResetsAtRunBoundary pins that the stall streak is
// per run: two runs of three flat rounds each hold two stalled rounds
// apiece, never the three in a row that fire.
func TestConvergenceStallResetsAtRunBoundary(t *testing.T) {
	d, _ := newTestDetector()
	tr := NewTracer(d)
	for run := 0; run < 2; run++ {
		root := tr.BeginPhase(PhaseRun)
		for r := 0; r < 3; r++ {
			tr.EndPhase(tr.BeginPhase(PhaseNeighborRound), PhaseStats{Links: 1000})
		}
		tr.EndPhase(root, PhaseStats{})
	}
	if rec := d.Recent(); len(rec) != 0 {
		t.Fatalf("flat rounds split across two runs fired %+v", rec)
	}
	// The same six rounds inside one run do stall.
	root := tr.BeginPhase(PhaseRun)
	for r := 0; r < 6; r++ {
		tr.EndPhase(tr.BeginPhase(PhaseNeighborRound), PhaseStats{Links: 1000})
	}
	tr.EndPhase(root, PhaseStats{})
	if got := lastRule(t, d); got != RuleConvergenceStall {
		t.Fatalf("rule = %s, want %s", got, RuleConvergenceStall)
	}
}

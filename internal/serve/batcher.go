package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/wal"
)

// edgeBatcher coalesces concurrent POST /edges bodies into batches
// executed as one parallel pass on the concurrent worker pool. Handler
// goroutines enqueue a submission and block on its reply; the batcher
// goroutine collects submissions for up to `window` (or until
// `maxBatch` edges are pending) and links the whole batch at once —
// under load, per-request overhead (pool submission, cache re-warming
// of π) amortizes across every request in the batch, which is exactly
// the regime Theorem 1 permits: edges from different requests can be
// linked in any interleaving, in parallel, without coordination.
type edgeBatcher struct {
	inc         *core.Incremental
	window      time.Duration
	maxBatch    int
	parallelism int
	accepted    *atomic.Int64  // server's accepted-edge counter
	sinks       []obs.Sink     // receive each flush's edge_batch_apply span
	applyHist   *obs.Histogram // per-flush apply wall time (may be nil)
	epoch       time.Time      // origin of the spans' StartNS

	// Durability and event wiring, assigned by the server between
	// construction and the run() launch (the batcher goroutine must not
	// start before these are set).
	wal      *wal.Log                                                  // nil = no write-ahead logging
	hub      *eventHub                                                 // merge-event fan-out (may be nil)
	sizeOf   func(graph.V) int                                         // census-snapshot size lookup for events
	onWALLag func(lsnDelta, byteDelta int64, appended, durable uint64) // post-flush durability gap report

	submit chan *submission
	done   chan struct{}

	batches      atomic.Int64
	batchedEdges atomic.Int64
	merges       atomic.Int64
	maxSeen      atomic.Int64
	walFailed    atomic.Int64 // batches refused because the WAL append failed
}

// submission is one request's edges plus the channel its handler blocks
// on. reply is buffered so the batcher never blocks on a dead handler.
type submission struct {
	edges []graph.Edge
	reply chan submitResult
}

type submitResult struct {
	accepted int
	merged   int
	lsn      uint64 // WAL record that carries this submission (0 = no WAL)
	err      error  // WAL append failure: nothing was applied or acked
}

func newEdgeBatcher(inc *core.Incremental, window time.Duration, maxBatch, parallelism int, accepted *atomic.Int64, sinks []obs.Sink, applyHist *obs.Histogram) *edgeBatcher {
	if maxBatch <= 0 {
		maxBatch = 8192
	}
	b := &edgeBatcher{
		inc:         inc,
		window:      window,
		maxBatch:    maxBatch,
		parallelism: parallelism,
		accepted:    accepted,
		sinks:       sinks,
		applyHist:   applyHist,
		epoch:       time.Now(),
		submit:      make(chan *submission, 1024),
		done:        make(chan struct{}),
	}
	return b
}

// run is the batcher goroutine: collect, flush, repeat until the submit
// channel closes, then flush whatever is pending and exit. Closing the
// channel is the drain signal — the server guarantees no enqueue races
// with it — so every accepted submission is flushed before done closes.
func (b *edgeBatcher) run() {
	defer close(b.done)
	for {
		first, ok := <-b.submit
		if !ok {
			return
		}
		batch, open := b.collect(first)
		b.flush(batch)
		if !open {
			return
		}
	}
}

// collect gathers submissions after `first` until the batch window
// expires or maxBatch edges are pending. A non-positive window means
// "no waiting": take only what is already queued.
func (b *edgeBatcher) collect(first *submission) (batch []*submission, open bool) {
	batch = []*submission{first}
	total := len(first.edges)
	if b.window <= 0 {
		for total < b.maxBatch {
			select {
			case s, ok := <-b.submit:
				if !ok {
					return batch, false
				}
				batch = append(batch, s)
				total += len(s.edges)
			default:
				return batch, true
			}
		}
		return batch, true
	}
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for total < b.maxBatch {
		select {
		case s, ok := <-b.submit:
			if !ok {
				return batch, false
			}
			batch = append(batch, s)
			total += len(s.edges)
		case <-timer.C:
			return batch, true
		}
	}
	return batch, true
}

// flush persists, applies, and acknowledges one coalesced batch, in
// that order:
//
//  1. Append the whole batch as one WAL record and fsync (group commit:
//     one fsync covers every request riding in the batch). A failed
//     append refuses the batch — nothing is applied, every submission
//     gets the error, the durability contract "ack ⇒ replayable" holds.
//  2. Link every edge in one parallel pass, collecting the component
//     merges each link performed.
//  3. Advance the applied-LSN watermark, publish the merges to the SSE
//     hub, report the durability gap, and reply to each submission.
func (b *edgeBatcher) flush(batch []*submission) {
	type flatEdge struct {
		u, v graph.V
		sub  int32
	}
	total := 0
	for _, s := range batch {
		total += len(s.edges)
	}
	flat := make([]flatEdge, 0, total)
	all := make([]graph.Edge, 0, total)
	for i, s := range batch {
		for _, e := range s.edges {
			flat = append(flat, flatEdge{u: e.U, v: e.V, sub: int32(i)})
			all = append(all, e)
		}
	}

	var lsn uint64
	if b.wal != nil && total > 0 {
		l, err := b.wal.Append(all)
		if err != nil {
			b.walFailed.Add(1)
			for _, s := range batch {
				s.reply <- submitResult{err: err}
			}
			return
		}
		lsn = uint64(l)
	}

	mergedPer := make([]int64, len(batch))
	var eventMu sync.Mutex
	var events []MergeEvent
	collect := b.hub != nil
	applyStart := time.Now()
	if len(flat) > 0 {
		concurrent.ForRange(len(flat), b.parallelism, 256, func(lo, hi, _ int) {
			var local []MergeEvent
			for i := lo; i < hi; i++ {
				e := flat[i]
				winner, loser, merged := b.inc.AddEdgeMergeAt(e.u, e.v, lsn)
				if !merged {
					continue
				}
				atomic.AddInt64(&mergedPer[e.sub], 1)
				if collect {
					local = append(local, MergeEvent{
						LSN: lsn, U: e.u, V: e.v, Winner: winner, Loser: loser,
						WinnerSize: b.sizeOf(winner), LoserSize: b.sizeOf(loser),
					})
				}
			}
			if len(local) > 0 {
				eventMu.Lock()
				events = append(events, local...)
				eventMu.Unlock()
			}
		})
	}
	applyDur := time.Since(applyStart)
	var merged int64
	for _, m := range mergedPer {
		merged += m
	}
	if b.applyHist != nil {
		b.applyHist.ObserveDuration(applyDur)
	}
	// The flush is one span with no children, so it goes straight to
	// the sinks: a Tracer living as long as the batcher would retain
	// every span it ever opened.
	sp := obs.Span{
		Parent:  -1,
		Name:    obs.PhaseEdgeBatch,
		StartNS: applyStart.Sub(b.epoch).Nanoseconds(),
		DurNS:   max(applyDur.Nanoseconds(), 1), // 0 would read as still open
		Stats:   obs.PhaseStats{Edges: int64(total), Links: int64(total), Merges: merged},
	}
	for _, sink := range b.sinks {
		sink.Emit(sp)
	}
	if lsn > 0 {
		b.inc.MarkApplied(lsn)
	}
	if collect && len(events) > 0 {
		b.hub.publish(events)
	}
	if b.wal != nil && b.onWALLag != nil {
		ws := b.wal.Stats()
		b.onWALLag(int64(ws.AppendedLSN-ws.DurableLSN), ws.AppendedBytes-ws.DurableBytes,
			uint64(ws.AppendedLSN), uint64(ws.DurableLSN))
	}
	b.batches.Add(1)
	b.batchedEdges.Add(int64(total))
	b.merges.Add(merged)
	b.accepted.Add(int64(total))
	for {
		max := b.maxSeen.Load()
		if int64(total) <= max || b.maxSeen.CompareAndSwap(max, int64(total)) {
			break
		}
	}
	for i, s := range batch {
		s.reply <- submitResult{accepted: len(s.edges), merged: int(mergedPer[i]), lsn: lsn}
	}
}

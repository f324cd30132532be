package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/core"
	"afforest/internal/graph"
	"afforest/internal/obs"
	"afforest/internal/provenance"
	"afforest/internal/wal"
)

// edgeBatcher coalesces concurrent POST /edges bodies into batches
// executed as one parallel pass on the concurrent worker pool. Handler
// goroutines enqueue a submission and block on its reply; the batcher
// goroutine takes the first submission plus everything already queued
// (up to maxBatchEdges) and flushes it at once. The batch is
// self-clocked group commit: nothing waits on a timer, so a batch is
// whatever queued while the previous flush ran. An idle server flushes
// each write alone; under load, batches grow with the flush time and
// per-request overhead (the fsync, pool submission, cache re-warming of
// π) amortizes across every request in the batch, which is exactly the
// regime Theorem 1 permits: edges from different requests can be linked
// in any interleaving, in parallel, without coordination.
type edgeBatcher struct {
	inc         *core.Incremental
	parallelism int
	accepted    *atomic.Int64  // server's accepted-edge counter
	sinks       []obs.Sink     // receive each flush's edge_batch_apply span
	applyHist   *obs.Histogram // per-flush apply wall time (may be nil)
	epoch       time.Time      // origin of the spans' StartNS

	// view orders readers against flushes. A flush holds it around the
	// in-memory apply and size fold, never around the WAL append.
	// /component and /census hold it shared to read sizes; Refresh and
	// SaveSnapshot hold it shared to compress π, which must not happen
	// while ApplyBatch resolves winners.
	view  sync.RWMutex
	sizes []int32 // exact size of every current root, 0 for non-roots

	// Durability and event wiring, assigned by the server between
	// construction and the run() launch (the batcher goroutine must not
	// start before these are set).
	wal      *wal.Log                                                  // nil = no write-ahead logging
	hub      *eventHub                                                 // merge-event fan-out (may be nil)
	prov     *provenance.Forest                                        // records each flush's merges (nil = off)
	onProv   func()                                                    // after each flush's RecordMerges (with prov)
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

// maxBatchEdges bounds a flush: collect stops taking queued submissions
// once the batch holds this many edges (the last one taken may carry it
// past). It binds only when that many edges queue behind one flush.
const maxBatchEdges = 8192

func newEdgeBatcher(inc *core.Incremental, parallelism int, accepted *atomic.Int64, sinks []obs.Sink, applyHist *obs.Histogram) *edgeBatcher {
	// Seed the size table once from the compressed labeling; from here
	// on every flush folds its own merges into it.
	labels := inc.Labels(parallelism)
	sizes := make([]int32, len(labels))
	for _, l := range labels {
		sizes[l]++
	}
	return &edgeBatcher{
		inc:         inc,
		parallelism: parallelism,
		accepted:    accepted,
		sinks:       sinks,
		applyHist:   applyHist,
		epoch:       time.Now(),
		sizes:       sizes,
		submit:      make(chan *submission, 1024),
		done:        make(chan struct{}),
	}
}

// applyBatch links one logged batch into inc and returns its merges. A
// live flush and the WAL replay of its record both apply through it.
// Which edge of a cycle merges depends on the link schedule, and a
// provenance forest records exactly those edges, so with a forest the
// batch links at parallelism 1: the merging edges are then a function
// of the record and the partition before it, and replay rebuilds the
// forest the live server built.
func applyBatch(inc *core.Incremental, edges []graph.Edge, parallelism int, prov *provenance.Forest) []core.Merge {
	if prov != nil {
		parallelism = 1
	}
	return inc.ApplyBatch(edges, parallelism)
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

// collect takes `first` plus every submission already queued behind
// it, stopping once maxBatchEdges edges are pending. It never waits: the
// only wait a write sees is for the flush in flight.
func (b *edgeBatcher) collect(first *submission) (batch []*submission, open bool) {
	batch = []*submission{first}
	total := len(first.edges)
	for total < maxBatchEdges {
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

// flush persists, applies, and acknowledges one coalesced batch, in
// that order:
//
//  1. Append the whole batch as one WAL record and fsync (group commit:
//     one fsync covers every request riding in the batch). A failed
//     append refuses the batch — nothing is applied, every submission
//     gets the error, the durability contract "ack ⇒ replayable" holds.
//     The log is fail-stop, so every later batch is refused the same
//     way.
//  2. Under the view lock, link every edge in one pass (applyBatch),
//     fold its merges into the per-root size table, and advance the
//     applied-LSN watermark. Readers holding the lock shared see the
//     state after some whole batch.
//  3. Record the merges in the provenance forest and refresh its
//     gauges, publish the merges to the SSE hub, report the durability
//     gap, and reply to each submission.
func (b *edgeBatcher) flush(batch []*submission) {
	total := 0
	for _, s := range batch {
		total += len(s.edges)
	}
	all := make([]graph.Edge, 0, total)
	subOf := make([]int32, 0, total) // submission index of each edge
	for i, s := range batch {
		all = append(all, s.edges...)
		for range s.edges {
			subOf = append(subOf, int32(i))
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

	mergedPer := make([]int, len(batch))
	var events []MergeEvent
	b.view.Lock()
	applyStart := time.Now()
	merges := applyBatch(b.inc, all, b.parallelism, b.prov)
	// ApplyBatch orders the merges so that each one joins two current
	// roots: both sizes are exact when read, and the fold keeps them so.
	for _, m := range merges {
		mergedPer[subOf[m.Edge]]++
		ws, ls := b.sizes[m.Winner], b.sizes[m.Loser]
		b.sizes[m.Winner], b.sizes[m.Loser] = ws+ls, 0
		if b.hub != nil {
			e := all[m.Edge]
			events = append(events, MergeEvent{
				LSN: lsn, U: e.U, V: e.V, Winner: m.Winner, Loser: m.Loser,
				WinnerSize: int(ws), LoserSize: int(ls),
			})
		}
	}
	applyDur := time.Since(applyStart)
	if lsn > 0 {
		b.inc.MarkApplied(lsn)
	}
	b.accepted.Add(int64(total))
	b.view.Unlock()

	if b.prov != nil {
		b.prov.RecordMerges(all, merges, lsn)
		b.onProv()
	}
	merged := int64(len(merges))
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
	if len(events) > 0 {
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
	for {
		max := b.maxSeen.Load()
		if int64(total) <= max || b.maxSeen.CompareAndSwap(max, int64(total)) {
			break
		}
	}
	for i, s := range batch {
		s.reply <- submitResult{accepted: len(s.edges), merged: mergedPer[i], lsn: lsn}
	}
}

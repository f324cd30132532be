package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"afforest/internal/graph"
	"afforest/internal/obs"
)

// MergeEvent is one component merge as observed by the write path:
// loser's component joined winner's, and winner survives as the merged
// component's root. A batch's events are published in descending loser
// order, which makes both of them current roots (component minima) when
// the events are replayed in seq order; the sizes are those roots'
// exact sizes just before the merge.
type MergeEvent struct {
	Seq uint64 `json:"seq"`
	LSN uint64 `json:"lsn,omitempty"` // WAL record that carried the edge (0 without a WAL)
	// U, V is the causal input edge: the exact submitted edge whose hook
	// CAS performed this merge. Unlike winner/loser (roots, artifacts of
	// the union-find's internal state), the causal edge is stable across
	// replays and is what provenance witness paths are made of.
	U          graph.V `json:"u"`
	V          graph.V `json:"v"`
	Winner     graph.V `json:"winner"`
	Loser      graph.V `json:"loser"`
	WinnerSize int     `json:"winner_size"`
	LoserSize  int     `json:"loser_size"`
}

// eventSubscriber is one GET /events client: a bounded queue the
// publisher never blocks on. A subscriber that falls queueLen behind is
// evicted (its channel closes), trading completeness for liveness —
// the client can reconnect with Last-Event-ID and resume from the ring.
type eventSubscriber struct {
	ch      chan MergeEvent
	evicted bool // set under hub.mu; the close reason the handler reports
}

// eventRingCap is the merge-event ring size backing Last-Event-ID
// resume on GET /events.
const eventRingCap = 1024

// subscriberQueue bounds each SSE subscriber's queue: a client that
// falls this far behind is evicted.
const subscriberQueue = 256

// eventHub fans component-merge events out to SSE subscribers. The
// ring always collects the last eventRingCap events even with no
// subscribers connected, so a late or reconnecting client can resume
// from an LSN it has already seen (Last-Event-ID) without a server-side
// cursor per client.
type eventHub struct {
	mu       sync.Mutex
	ring     obs.Ring[MergeEvent] // the last eventRingCap events
	queueLen int
	seq      uint64
	subs     map[*eventSubscriber]struct{}
	closed   bool

	published int64
	evictions int64
}

func newEventHub() *eventHub {
	return &eventHub{
		ring:     obs.NewRing[MergeEvent](eventRingCap),
		queueLen: subscriberQueue,
		subs:     map[*eventSubscriber]struct{}{},
	}
}

// publish assigns sequence numbers, records the events in the ring, and
// delivers to every live subscriber. A subscriber whose queue is full
// is evicted on the spot: publish never blocks the write path. It runs
// on the batcher goroutine before the flush acks; once the ring is
// full it allocates nothing, since each event overwrites the oldest in
// place.
func (h *eventHub) publish(events []MergeEvent) {
	if len(events) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for i := range events {
		h.seq++
		events[i].Seq = h.seq
		h.ring.Push(events[i])
	}
	h.published += int64(len(events))
	for sub := range h.subs {
		for _, ev := range events {
			select {
			case sub.ch <- ev:
			default:
				sub.evicted = true
				delete(h.subs, sub)
				close(sub.ch)
				h.evictions++
			}
			if sub.evicted {
				break
			}
		}
	}
}

// subscribe registers a client and returns the ring backlog past
// afterLSN (0 = only live events; the ring is replayed for resuming
// clients, not first connects). Returns nil when the hub is draining.
// The backlog and the live channel are cut under one lock acquisition,
// so no event is lost or duplicated between them.
func (h *eventHub) subscribe(afterLSN uint64) (*eventSubscriber, []MergeEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil
	}
	var backlog []MergeEvent
	if afterLSN > 0 {
		for _, ev := range h.ring.Items() {
			if ev.LSN > afterLSN {
				backlog = append(backlog, ev)
			}
		}
	}
	sub := &eventSubscriber{ch: make(chan MergeEvent, h.queueLen)}
	h.subs[sub] = struct{}{}
	return sub, backlog
}

// unsubscribe removes a departing client. Idempotent with eviction and
// close (the channel closes exactly once).
func (h *eventHub) unsubscribe(sub *eventSubscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// close evicts every subscriber and refuses new ones; publish becomes a
// no-op. Called during server drain — handlers observe their channel
// closing and end their streams cleanly.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// snapshot returns (published, evictions, live subscribers) for /stats.
func (h *eventHub) snapshot() (int64, int64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published, h.evictions, len(h.subs)
}

// handleEvents streams component merges as server-sent events:
//
//	id: <lsn>
//	data: {"seq":..,"lsn":..,"winner":..,"loser":..,...}
//
// The id line is emitted only on the last event of each LSN's run, so a
// client cut off mid-batch resumes from the previous complete batch and
// re-receives the whole partial one (duplicates over gaps). A client
// reconnecting sends Last-Event-ID (or ?after=<lsn>) and the ring
// replays everything newer it still holds.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.api.Error(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var after uint64
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.api.Error(w, http.StatusBadRequest, fmt.Sprintf("bad event id %q", raw))
			return
		}
		after = v
	}
	sub, backlog := s.hub.subscribe(after)
	if sub == nil {
		s.api.fail(w, errDraining)
		return
	}
	defer s.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for i, ev := range backlog {
		last := i+1 == len(backlog) || backlog[i+1].LSN != ev.LSN
		if err := writeSSE(w, ev, last); err != nil {
			return
		}
	}
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-sub.ch:
			if !open {
				// Evicted or the server is draining; either way the
				// stream is over. The client reconnects with
				// Last-Event-ID to resume.
				return
			}
			// Greedily drain whatever else is queued so one flush covers
			// the burst, emitting the id only at LSN boundaries.
			for {
				var next MergeEvent
				var more bool
				select {
				case next, more = <-sub.ch:
				default:
				}
				if !more {
					if err := writeSSE(w, ev, true); err != nil {
						return
					}
					break
				}
				if err := writeSSE(w, ev, next.LSN != ev.LSN); err != nil {
					return
				}
				ev = next
			}
			fl.Flush()
		}
	}
}

// writeSSE emits one event frame; withID stamps the id line (the LSN)
// that updates the client's Last-Event-ID.
func writeSSE(w http.ResponseWriter, ev MergeEvent, withID bool) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if withID && ev.LSN > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", ev.LSN); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", b)
	return err
}

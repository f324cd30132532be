package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// Span is one completed (or still open, DurNS == 0) phase of a traced
// run. Times are nanoseconds since the tracer's epoch, so a JSONL
// stream is self-contained and diffable across runs.
type Span struct {
	ID      SpanID     `json:"id"`
	Parent  SpanID     `json:"parent"` // -1 for roots
	Name    string     `json:"name"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns"`
	Stats   PhaseStats `json:"stats"`
}

// Sink receives each span as it completes. Every consumer of phase
// spans is a Sink: JSONLSink, RingSink, RunMetrics, AnomalyDetector and
// FlightRecorder. One sink may hear from several tracers at once (a
// server's batcher and its bootstrap run), so Emit must be safe for
// concurrent use.
type Sink interface {
	Emit(s Span)
}

// Tracer is the one producer of phase spans: it opens and closes them,
// records the phase tree (BeginPhase while another span is open opens a
// child), and hands each closed span to its sinks. Phases in the
// Afforest runtime are coarse (a handful per run), so a mutex per
// boundary costs nothing measurable; the hot loops inside a phase never
// touch the tracer. A Tracer keeps every span it opens, so it lives for
// one run (or one request), not for a server's lifetime.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	stack []SpanID
	sinks []Sink
}

// NewTracer returns a tracer whose epoch is now, forwarding completed
// spans to each sink.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{epoch: time.Now(), sinks: sinks}
}

// BeginPhase opens a span under the innermost open span (or as a
// root).
func (t *Tracer) BeginPhase(name string) SpanID {
	t.mu.Lock()
	id := SpanID(len(t.spans))
	parent := SpanID(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, Span{
		ID:      id,
		Parent:  parent,
		Name:    name,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return id
}

// EndPhase closes the span (and, defensively, any forgotten children
// still open beneath it) and forwards it to the sinks.
func (t *Tracer) EndPhase(id SpanID, st PhaseStats) {
	t.mu.Lock()
	if int(id) < 0 || int(id) >= len(t.spans) || t.spans[id].DurNS != 0 {
		t.mu.Unlock()
		return
	}
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if top == id {
			break
		}
	}
	sp := &t.spans[id]
	sp.DurNS = time.Since(t.epoch).Nanoseconds() - sp.StartNS
	if sp.DurNS == 0 {
		sp.DurNS = 1 // clamp: DurNS == 0 marks a still-open span
	}
	sp.Stats = st
	done := *sp
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.Emit(done)
	}
}

// Spans returns a copy of every span recorded so far, in begin order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// --- Sinks ---

// JSONLSink writes one JSON object per completed span to w.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w (callers keep ownership; close it after the
// traced run finishes).
func NewJSONLSink(w io.Writer) *JSONLSink {
	// Prime encoding/json's reflection cache for Span now: the first
	// Encode of a type pays a one-off ~100µs setup that would otherwise
	// land between the first two phases of the traced run.
	json.NewEncoder(io.Discard).Encode(Span{})
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes s as one JSON line.
func (j *JSONLSink) Emit(s Span) {
	j.mu.Lock()
	j.enc.Encode(s)
	j.mu.Unlock()
}

// RingSink retains the most recent spans in memory — the test and
// /stats-shaped sink.
type RingSink struct {
	mu    sync.Mutex
	spans Ring[Span]
}

// NewRingSink retains the last capacity spans (minimum 1).
func NewRingSink(capacity int) *RingSink {
	return &RingSink{spans: NewRing[Span](capacity)}
}

// Emit stores s, evicting the oldest span when full.
func (r *RingSink) Emit(s Span) {
	r.mu.Lock()
	r.spans.Push(s)
	r.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (r *RingSink) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.Items()
}

// Ring retains the last items pushed, up to its capacity. Its storage
// grows by append up to the capacity and then wraps, overwriting the
// oldest item in place, so a recorder that never records holds none
// and a full one allocates nothing per push. It is not safe for
// concurrent use: its owner locks it.
type Ring[T any] struct {
	buf  []T
	max  int
	next int // the oldest item's index once buf is full
}

// NewRing returns an empty ring retaining the last capacity items
// (minimum 1).
func NewRing[T any](capacity int) Ring[T] { return Ring[T]{max: max(capacity, 1)} }

// Push appends x, overwriting the oldest item once the ring is full.
func (r *Ring[T]) Push(x T) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, x)
		return
	}
	r.buf[r.next] = x
	r.next = (r.next + 1) % len(r.buf)
}

// Items returns a copy of the retained items, oldest first (nil when
// there are none).
func (r *Ring[T]) Items() []T { return slices.Concat(r.buf[r.next:], r.buf[:r.next]) }

// Reset empties the ring and keeps its backing array for the next
// pushes.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf, r.next = r.buf[:0], 0
}

package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the "what was every worker doing just now"
// layer beneath the tracer: a per-worker ring buffer of fixed-size
// binary events — job start/end, chunk claims, closed phases, CAS-retry
// bursts — cheap enough to leave on while serving and dense enough to
// reconstruct a per-worker timeline after an anomaly. The pool feeds it
// per chunk (concurrent.Pool.SetFlight); a Tracer feeds it one event
// per closed phase span (FlightRecorder is a Sink).
// When detached the hot path pays one atomic pointer load per ForRange,
// never per chunk — the same discipline as PoolMetrics and DetConfig,
// pinned by TestFlightRecorderDisabledOverheadGuard.

// EventKind discriminates flight events.
type EventKind uint8

// Flight event kinds. Arg0..Arg2 are kind-specific (see FlightEvent).
const (
	EvJobStart   EventKind = iota + 1 // a parallel job was submitted: Arg0=n, Arg1=grain, Arg2=workers
	EvJobEnd                          // the job's last chunk drained: Arg0=n
	EvChunkClaim                      // one chunk ran: Arg0=lo, Arg1=hi (job index domain)
	EvPhaseEnd                        // a traced phase closed: Arg0=name index, Arg1=links, Arg2=CAS retries
	EvCASBurst                        // a phase closed with CAS retries >= casBurstThreshold: Arg0=name index, Arg1=retries, Arg2=links
)

// String returns the JSONL kind tag.
func (k EventKind) String() string {
	switch k {
	case EvJobStart:
		return "job_start"
	case EvJobEnd:
		return "job_end"
	case EvChunkClaim:
		return "chunk_claim"
	case EvPhaseEnd:
		return "phase_end"
	case EvCASBurst:
		return "cas_burst"
	}
	return "unknown"
}

// FlightEvent is one fixed-size binary record. TS is nanoseconds since
// the recorder's epoch; Dur is the event's own duration where it has
// one (chunk body, job, phase). The worker id is implied by the ring
// the event sits in, so it is not stored per event.
type FlightEvent struct {
	TS   int64
	Dur  int64
	Arg0 int64
	Arg1 int64
	Arg2 int64
	Job  uint32
	Kind EventKind
}

// ControlWorker is the worker id reported for events recorded outside
// any pool worker: closed phases and job start/end, which are emitted
// by the submitting (control) goroutine.
const ControlWorker = -1

// flightRing is one worker's event buffer. Each ring has its own
// mutex — events from one worker never contend with another's — and is
// padded so two rings never share a cache line.
type flightRing struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    int
	seq     uint64 // events ever recorded on this ring
	wrapped bool
	_       [24]byte // pad the hot fields away from the next ring's mutex
}

func (r *flightRing) record(ev FlightEvent) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	r.seq++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// events returns the retained events oldest-first plus the absolute
// sequence number of the first one.
func (r *flightRing) events() (evs []FlightEvent, first uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		return append([]FlightEvent(nil), r.buf[:r.next]...), 0
	}
	evs = make([]FlightEvent, 0, len(r.buf))
	evs = append(evs, r.buf[r.next:]...)
	evs = append(evs, r.buf[:r.next]...)
	return evs, r.seq - uint64(len(r.buf))
}

// DefaultFlightCapacity is the per-worker ring capacity used when
// NewFlightRecorder is given a non-positive one. At one event per
// ~512-vertex chunk this holds the last few full runs per worker.
const DefaultFlightCapacity = 4096

// casBurstThreshold is the per-phase CAS-retry count at which the
// recorder flags an EvCASBurst alongside the phase-end event.
const casBurstThreshold = 1024

// FlightRecorder holds one ring per worker plus a control ring for
// events emitted outside any pool worker (closed phases, job
// boundaries). It is a Sink, so a Tracer feeds it next to the metrics
// and the anomaly detector.
type FlightRecorder struct {
	epoch   time.Time
	rings   []flightRing // [0..workers-1] workers, [workers] control
	workers int

	jobSeq  atomic.Uint32
	spanSeq atomic.Uint32

	nameMu sync.Mutex
	names  []string
	nameIx map[string]int
}

// NewFlightRecorder returns a recorder with `workers` per-worker rings
// (<= 0 means GOMAXPROCS) of `capacity` events each (<= 0 means
// DefaultFlightCapacity), plus the control ring.
func NewFlightRecorder(workers, capacity int) *FlightRecorder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	f := &FlightRecorder{
		epoch:   time.Now(),
		rings:   make([]flightRing, workers+1),
		workers: workers,
		nameIx:  make(map[string]int),
	}
	for i := range f.rings {
		f.rings[i].buf = make([]FlightEvent, capacity)
	}
	return f
}

// now returns nanoseconds since the recorder's epoch.
func (f *FlightRecorder) now() int64 { return time.Since(f.epoch).Nanoseconds() }

// ring maps a worker id to its ring; ids beyond the ring count fold
// back in (a recorder sized for the pool never folds), ControlWorker
// and other negatives go to the control ring.
func (f *FlightRecorder) ring(worker int) *flightRing {
	if worker < 0 {
		return &f.rings[f.workers]
	}
	return &f.rings[worker%f.workers]
}

func (f *FlightRecorder) intern(name string) int {
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	if i, ok := f.nameIx[name]; ok {
		return i
	}
	f.names = append(f.names, name)
	f.nameIx[name] = len(f.names) - 1
	return len(f.names) - 1
}

func (f *FlightRecorder) nameAt(i int64) string {
	f.nameMu.Lock()
	defer f.nameMu.Unlock()
	if i < 0 || int(i) >= len(f.names) {
		return "?"
	}
	return f.names[i]
}

// --- pool feed (called from internal/concurrent) ---

// JobStart records a parallel-job submission on the control ring and
// returns the job id the pool threads through chunk events.
func (f *FlightRecorder) JobStart(n, grain, workers int) uint32 {
	id := f.jobSeq.Add(1)
	f.ring(ControlWorker).record(FlightEvent{
		TS: f.now(), Kind: EvJobStart, Job: id,
		Arg0: int64(n), Arg1: int64(grain), Arg2: int64(workers),
	})
	return id
}

// JobEnd records the job's completion (durNS spans submit to last chunk
// drained).
func (f *FlightRecorder) JobEnd(job uint32, n int, durNS int64) {
	f.ring(ControlWorker).record(FlightEvent{
		TS: f.now() - durNS, Dur: durNS, Kind: EvJobEnd, Job: job, Arg0: int64(n),
	})
}

// ChunkClaim records one executed chunk [lo, hi) of the job's index
// domain on the claiming worker's ring. durNS is the chunk body's wall
// time; TS marks the claim, so TS..TS+Dur is the busy interval the
// timeline renders.
func (f *FlightRecorder) ChunkClaim(job uint32, worker, lo, hi int, durNS int64) {
	f.ring(worker).record(FlightEvent{
		TS: f.now() - durNS, Dur: durNS, Kind: EvChunkClaim, Job: job,
		Arg0: int64(lo), Arg1: int64(hi),
	})
}

// --- phase feed ---

// Emit records the closed span as one phase-end event on the control
// ring (TS is the phase start, Dur its length), flagging a CAS-retry
// burst when the phase's retry count reaches casBurstThreshold.
func (f *FlightRecorder) Emit(s Span) {
	id := f.spanSeq.Add(1)
	ix := int64(f.intern(s.Name))
	ts := f.now()
	ctl := f.ring(ControlWorker)
	ctl.record(FlightEvent{
		TS: ts - s.DurNS, Dur: s.DurNS, Kind: EvPhaseEnd, Job: id,
		Arg0: ix, Arg1: s.Stats.Links, Arg2: s.Stats.CASRetries,
	})
	if s.Stats.CASRetries >= casBurstThreshold {
		ctl.record(FlightEvent{
			TS: ts, Kind: EvCASBurst, Job: id,
			Arg0: ix, Arg1: s.Stats.CASRetries, Arg2: s.Stats.Links,
		})
	}
}

// --- dumps ---

// DumpOptions selects the JSONL encoding. Canonical omits every
// wall-clock field (ts_ns, dur_ns), leaving only the logical event
// stream: under a pinned deterministic schedule two replays of the same
// run produce byte-identical canonical dumps, which is what the anomaly
// snapshots use and the determinism tests pin.
type DumpOptions struct {
	Canonical bool
}

// WriteJSONL dumps every ring — workers first, control last — as one
// JSON object per event, oldest first within a ring. Fields are written
// in a fixed order (no map iteration), so the encoding itself is
// deterministic.
func (f *FlightRecorder) WriteJSONL(w io.Writer, opt DumpOptions) error {
	bw := bufio.NewWriter(w)
	for i := 0; i <= f.workers; i++ {
		worker := i
		if i == f.workers {
			worker = ControlWorker
		}
		evs, first := f.rings[i].events()
		for k, ev := range evs {
			writeFlightEvent(bw, f, worker, first+uint64(k), ev, opt)
		}
	}
	return bw.Flush()
}

// Snapshot returns the WriteJSONL bytes (the anomaly detector's
// capture format).
func (f *FlightRecorder) Snapshot(opt DumpOptions) []byte {
	var buf bytes.Buffer
	f.WriteJSONL(&buf, opt)
	return buf.Bytes()
}

// writeFlightEvent renders one event as a JSON line with a stable
// field order and kind-specific argument names.
func writeFlightEvent(w *bufio.Writer, f *FlightRecorder, worker int, seq uint64, ev FlightEvent, opt DumpOptions) {
	w.WriteString(`{"worker":`)
	w.WriteString(strconv.Itoa(worker))
	w.WriteString(`,"seq":`)
	w.WriteString(strconv.FormatUint(seq, 10))
	if !opt.Canonical {
		w.WriteString(`,"ts_ns":`)
		w.WriteString(strconv.FormatInt(ev.TS, 10))
		if ev.Dur != 0 {
			w.WriteString(`,"dur_ns":`)
			w.WriteString(strconv.FormatInt(ev.Dur, 10))
		}
	}
	w.WriteString(`,"kind":"`)
	w.WriteString(ev.Kind.String())
	w.WriteString(`","job":`)
	w.WriteString(strconv.FormatUint(uint64(ev.Job), 10))
	switch ev.Kind {
	case EvJobStart:
		fmt.Fprintf(w, `,"n":%d,"grain":%d,"workers":%d`, ev.Arg0, ev.Arg1, ev.Arg2)
	case EvJobEnd:
		fmt.Fprintf(w, `,"n":%d`, ev.Arg0)
	case EvChunkClaim:
		fmt.Fprintf(w, `,"lo":%d,"hi":%d`, ev.Arg0, ev.Arg1)
	case EvPhaseEnd:
		fmt.Fprintf(w, `,"phase":%q,"links":%d,"cas_retries":%d`, f.nameAt(ev.Arg0), ev.Arg1, ev.Arg2)
	case EvCASBurst:
		fmt.Fprintf(w, `,"phase":%q,"cas_retries":%d,"links":%d`, f.nameAt(ev.Arg0), ev.Arg1, ev.Arg2)
	}
	w.WriteString("}\n")
}

// Handler serves the recorder over HTTP (ccserve mounts it at
// /debug/flight on the -debug-addr listener): JSONL by default,
// ?view=timeline for the rendered per-worker table, ?canonical=1 for
// the timestamp-free encoding.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Get("view") == "timeline" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			f.WriteTimeline(w, 0)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		f.WriteJSONL(w, DumpOptions{Canonical: q.Get("canonical") == "1"})
	})
}

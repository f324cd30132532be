package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"afforest/internal/obs"
	"afforest/internal/wal"
)

// span is one interval recorded by a traced run. Parent is the id of
// the span that caused it (-1 for a root); spans of one request, run or
// load share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a traced run's spans in memory until the run ends.
// Times are nanoseconds since the recorder was made.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to recorder time.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records one span with a fresh id and returns the id.
func (r *recorder) add(s span) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans))
	r.spans = append(r.spans, s)
	return s.ID
}

// addRoot records [start, end) as a root span under layer/name.
func (r *recorder) addRoot(layer, name string, req int64, start, end time.Time) {
	r.add(span{Parent: -1, Req: req, Layer: layer, Name: name, Start: r.at(start), End: r.at(end)})
}

// addPhaseTree records the spans of one traced core.Run, re-parented
// under recorder ids. base is the wall-clock epoch of the obs.Tracer.
func (r *recorder) addPhaseTree(spans []obs.Span, base time.Time, req int64) {
	ids := make(map[obs.SpanID]int64, len(spans))
	off := r.at(base)
	for _, s := range spans {
		parent := int64(-1)
		if p, ok := ids[s.Parent]; ok {
			parent = p
		}
		ids[s.ID] = r.add(span{Parent: parent, Req: req, Layer: "core", Name: s.Name,
			Start: off + s.StartNS, End: off + s.StartNS + s.DurNS})
	}
}

// addWireSpans records one cluster load's wire spans. Router-side spans
// and shard-side spans carry ids from different WireTraces, so they are
// keyed by (namespace, id): the router's namespace is -1, a shard's is
// its index. A shard's op span has Remote set and names its parent in
// the router's namespace. base approximates the tracers' epochs (the
// cluster's boot); self time does not depend on it.
func (r *recorder) addWireSpans(spans []obs.WireSpan, base time.Time, req int64) {
	type key struct {
		ns int
		id uint32
	}
	stage := func(s obs.WireSpan) bool {
		return s.Name == obs.WireDecode || s.Name == obs.WireWork || s.Name == obs.WireEncode
	}
	keyOf := func(s obs.WireSpan) key {
		if s.Remote || stage(s) {
			return key{s.Shard, s.ID}
		}
		return key{-1, s.ID}
	}
	parentOf := func(s obs.WireSpan) key {
		if stage(s) {
			return key{s.Shard, s.Parent}
		}
		return key{-1, s.Parent}
	}
	// Parents end after their children, so the ring holds children
	// first; assign every id before resolving parents.
	ids := make(map[key]int64, len(spans))
	recIDs := make([]int64, len(spans))
	off := r.at(base)
	for i, s := range spans {
		layer := "cluster"
		if s.Remote || stage(s) {
			layer = "shard"
		}
		recIDs[i] = r.add(span{Parent: -1, Req: req, Layer: layer, Name: s.Name,
			Start: off + s.StartNS, End: off + s.StartNS + s.DurNS})
		ids[keyOf(s)] = recIDs[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range spans {
		if p, ok := ids[parentOf(s)]; ok && s.Parent != 0 {
			r.spans[recIDs[i]].Parent = p
		}
	}
}

// layerTime is one layer's span count, total and self time.
type layerTime struct {
	spans       int
	total, self time.Duration
}

// selfTimes returns each layer's self time: for every span, its
// duration minus the part its direct children cover. Children of one
// span all come from one tracer, so their union is taken in their own
// time base and capped at the parent's duration.
func (r *recorder) selfTimes() map[string]layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range r.spans {
		covered := min(union(children[s.ID]), s.dur())
		lt := out[s.Layer]
		lt.spans++
		lt.total += time.Duration(s.dur())
		lt.self += time.Duration(s.dur() - covered)
		out[s.Layer] = lt
	}
	return out
}

// union returns the total length covered by the spans' intervals.
func union(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curS, curE := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
		} else if s.End > curE {
			curE = s.End
		}
	}
	return total + curE - curS
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, st map[string]layerTime) {
	fmt.Fprintf(w, "# %-8s %9s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, l := range selfLayers {
		lt := st[l]
		fmt.Fprintf(w, "# %-8s %9d %12.3f %12.3f\n", l, lt.spans, ms(lt.total), ms(lt.self))
	}
}

// timedFS wraps a wal.FS so every segment write and fsync is timed:
// always counted, and recorded as a span when rec is set.
type timedFS struct {
	wal.FS
	tally *walIO
}

// walIO accumulates the write-ahead log's I/O as seen through timedFS.
type walIO struct {
	mu  sync.Mutex
	rec *recorder // nil: count and time only
	walTotals
}

type walTotals struct {
	writes []float64 // µs per segment write
	syncs  []float64 // µs per fsync
	bytes  int64
}

// reset clears the accumulated I/O, switches span recording to rec, and
// returns what had accumulated.
func (w *walIO) reset(rec *recorder) walTotals {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.walTotals
	w.walTotals, w.rec = walTotals{}, rec
	return old
}

func (fs timedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{f, fs.tally}, nil
}

func (fs timedFS) OpenAppend(name string, size int64) (wal.File, error) {
	f, err := fs.FS.OpenAppend(name, size)
	if err != nil {
		return nil, err
	}
	return timedFile{f, fs.tally}, nil
}

type timedFile struct {
	wal.File
	tally *walIO
}

func (f timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.tally.done("write", t, time.Now(), int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.tally.done("fsync", t, time.Now(), 0)
	return err
}

func (w *walIO) done(name string, start, end time.Time, n int64) {
	d := us(end.Sub(start))
	w.mu.Lock()
	if name == "write" {
		w.writes = append(w.writes, d)
		w.bytes += n
	} else {
		w.syncs = append(w.syncs, d)
	}
	rec := w.rec
	w.mu.Unlock()
	if rec != nil {
		rec.addRoot("wal", name, -1, start, end)
	}
}

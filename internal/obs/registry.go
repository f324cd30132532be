package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric. Metrics
// with the same name and different labels form one exposition family.
type Label struct {
	Key, Value string
}

// L builds a Label (keeps call sites short and go-vet-clean).
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// name+labels combination returns the same metric, so independent
// subsystems can bind to shared counters without coordination.
// Registration takes a lock; metric updates are lock-free atomics.
type Registry struct {
	mu   sync.RWMutex
	fams []*family
	byN  map[string]*family
}

type family struct {
	name, help, typ string
	entries         []*entry
	byLabels        map[string]*entry
}

type entry struct {
	labels string // rendered `k1="v1",k2="v2"` (no braces), "" when unlabeled
	m      any    // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]*family)}
}

// lookup finds or creates the family and entry slot, enforcing type
// consistency. It returns the existing metric when one is registered,
// or nil when the caller should construct and install one (the
// registry lock is held across install via the returned closure).
func (r *Registry) register(name, help, typ string, labels []Label, build func() any) any {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byN[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*entry)}
		r.byN[name] = f
		r.fams = append(r.fams, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if e := f.byLabels[ls]; e != nil {
		return e.m
	}
	e := &entry{labels: ls, m: build()}
	f.byLabels[ls] = e
	f.entries = append(f.entries, e)
	return e.m
}

// Counter returns the counter registered under name+labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under
// name+labels, creating it with the given upper bounds on first use
// (later calls ignore bounds and return the existing histogram).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels, func() any { return NewHistogram(bounds) }).(*Histogram)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s=%q`, l.Key, escapeLabel(l.Value))
	}
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping; %q in
// renderLabels then adds the quotes (Go string quoting is a superset of
// what Prometheus requires for \\, \" and \n).
func escapeLabel(v string) string { return v }

// --- Counter ---

// counterShards spreads one counter over several cache lines so
// independent workers can Add without bouncing a single line. A power
// of two keeps the shard pick a mask.
const counterShards = 16

type counterShard struct {
	n atomic.Int64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotone int64 counter. Add/Inc hit shard 0;
// per-worker hot loops use AddShard with their dense worker id so
// concurrent increments never contend. Value sums the shards.
type Counter struct {
	shards [counterShards]counterShard
}

// Inc adds one.
func (c *Counter) Inc() { c.shards[0].n.Add(1) }

// Add adds n (callers must keep counters monotone: n >= 0).
func (c *Counter) Add(n int64) { c.shards[0].n.Add(n) }

// AddShard adds n on the shard picked by id (any int; typically a
// dense worker id). Distinct ids below counterShards never contend.
func (c *Counter) AddShard(id int, n int64) {
	c.shards[uint(id)&(counterShards-1)].n.Add(n)
}

// Value returns the current total. Concurrent Adds make the total a
// lower bound at the instant of return; successive Values never
// decrease.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// --- Gauge ---

// Gauge is a float64 gauge stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

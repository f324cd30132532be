package concurrent

import (
	"sync"
	"sync/atomic"
	"time"

	"afforest/internal/obs"
)

// Pool is a persistent set of worker goroutines that services
// ForRange-shaped jobs. Afforest executes 2·rounds+2 parallel phases
// per call — and the iterative baselines run dozens — so spawning fresh
// goroutines per phase puts scheduler churn on the critical path of
// loops that are otherwise pure memory traffic. A Pool keeps its
// workers parked between phases: submitting a job is one mutex-guarded
// pop of the idle list plus one buffered channel send per recruited
// worker, and chunk distribution inside a job uses the same atomic
// ticket counter as the spawn-based scheduler (schedule(dynamic, grain)
// semantics are unchanged).
//
// The submitting goroutine always participates as worker 0, so a job
// makes progress even when every pool worker is busy. Workers are
// recruited only from the idle list — a worker blocked inside a nested
// ForRange is never handed a job — which makes nested submissions
// deadlock-free by construction.
type Pool struct {
	mu     sync.Mutex
	idle   []int // slots of workers currently parked
	tasks  []chan poolTask
	closed bool

	// metrics, when set, receives per-job utilization: busy time and
	// chunk counts per worker plus a max-over-mean imbalance gauge. The
	// nil-pointer fast path costs one atomic load per ForRange — never
	// per chunk.
	metrics atomic.Pointer[obs.PoolMetrics]

	// det, when set, routes jobs through the deterministic seeded
	// scheduler (sched.go); detSeq is the job ordinal mixed into each
	// job's permutation seed. Same one-atomic-load discipline as
	// metrics.
	det    atomic.Pointer[DetConfig]
	detSeq atomic.Uint64

	// flight, when set, receives job/chunk events into per-worker ring
	// buffers. Same one-atomic-load disabled path as metrics, pinned by
	// TestFlightRecorderDisabledOverheadGuard; when on, chunks pay one
	// clock read each (the busy intervals are the point).
	flight atomic.Pointer[obs.FlightRecorder]
}

// SetMetrics installs (or, with nil, removes) the utilization metrics
// the pool reports into. Safe to call concurrently with running jobs;
// jobs already in flight finish under the sink they started with.
func (pl *Pool) SetMetrics(m *obs.PoolMetrics) { pl.metrics.Store(m) }

// SetFlight installs (or, with nil, removes) the flight recorder the
// pool records job and chunk events into. Same in-flight semantics as
// SetMetrics.
func (pl *Pool) SetFlight(f *obs.FlightRecorder) { pl.flight.Store(f) }

// poolTask hands a job to one recruited worker together with its
// participant id (the submitter is always id 0).
type poolTask struct {
	job *poolJob
	id  int
}

// poolJob is one ForRange-shaped job: workers claim [lo, hi) chunks
// from the ticket counter until the domain is exhausted.
type poolJob struct {
	next  atomic.Int64
	n     int
	grain int
	body  func(lo, hi, worker int)
	wg    sync.WaitGroup

	// Set only when the pool has metrics installed: busy[w] is written
	// once per participant after its claim loop drains (no sharing
	// while the job runs), then read by the submitter for the imbalance
	// gauge.
	metrics *obs.PoolMetrics
	busy    []int64

	// Set only when the pool has a flight recorder installed: every
	// chunk records a claim event under flightJob.
	flight    *obs.FlightRecorder
	flightJob uint32
}

// run is one participant's claim loop. Accounting rides along at one
// nil check and one increment per chunk: metrics cost one clock read
// around the whole loop (not per chunk) and sharded counter adds on the
// way out, so metered jobs stay within noise of unmetered ones; the
// flight recorder additionally times each chunk body, since the
// per-chunk busy intervals are exactly what its timeline reconstructs.
func (j *poolJob) run(worker int) {
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	var chunks int64
	g := int64(j.grain)
	for {
		lo := j.next.Add(g) - g
		if lo >= int64(j.n) {
			break
		}
		hi := int(lo) + j.grain
		if hi > j.n {
			hi = j.n
		}
		if j.flight != nil {
			t0 := time.Now()
			j.body(int(lo), hi, worker)
			j.flight.ChunkClaim(j.flightJob, worker, int(lo), hi, time.Since(t0).Nanoseconds())
		} else {
			j.body(int(lo), hi, worker)
		}
		chunks++
	}
	if j.metrics != nil {
		busyNS := time.Since(start).Nanoseconds()
		j.metrics.Busy.AddShard(worker, busyNS)
		j.metrics.Chunks.AddShard(worker, chunks)
		if worker < len(j.busy) {
			j.busy[worker] = busyNS
		}
	}
}

// NewPool starts a pool of size parked workers (size <= 0 means
// GOMAXPROCS). The workers live until Close.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = Procs(0)
	}
	pl := &Pool{
		idle:  make([]int, size),
		tasks: make([]chan poolTask, size),
	}
	for i := range pl.tasks {
		pl.idle[i] = i
		// Capacity 1 so that a send to a worker just popped from the idle
		// list never blocks, even if that worker has not yet parked on the
		// receive.
		pl.tasks[i] = make(chan poolTask, 1)
	}
	for i := range pl.tasks {
		go pl.worker(i)
	}
	return pl
}

// Size returns the number of worker goroutines the pool was built with.
func (pl *Pool) Size() int { return len(pl.tasks) }

func (pl *Pool) worker(slot int) {
	for t := range pl.tasks[slot] {
		t.job.run(t.id)
		t.job.wg.Done()
		pl.mu.Lock()
		closed := pl.closed
		if !closed {
			pl.idle = append(pl.idle, slot)
		}
		pl.mu.Unlock()
		if closed {
			return
		}
	}
}

// grab pops up to max workers from the idle list. It returns nil after
// Close, which degrades submissions to caller-only execution.
func (pl *Pool) grab(max int) []int {
	if max <= 0 {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed || len(pl.idle) == 0 {
		return nil
	}
	k := len(pl.idle)
	if k > max {
		k = max
	}
	cut := len(pl.idle) - k
	slots := append([]int(nil), pl.idle[cut:]...)
	pl.idle = pl.idle[:cut]
	return slots
}

// ForRange is the pool-backed equivalent of the package-level ForRange:
// it distributes [0, n) across at most p workers in dynamically claimed
// chunks of grain indices, invoking body(lo, hi, worker) once per
// chunk. Worker ids are dense in [0, w) where w <= p is the number of
// actual participants; the calling goroutine is always worker 0.
func (pl *Pool) ForRange(n, p, grain int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p = Procs(p)
	if chunks := (n + grain - 1) / grain; p > chunks {
		p = chunks
	}
	if d := pl.det.Load(); d != nil {
		pl.forRangeDet(d, n, p, grain, body)
		return
	}
	pl.dispatch(n, p, grain, body, pl.flight.Load())
}

// dispatch is the production scheduling path: parameters arrive
// normalized (n > 0, grain > 0, 1 <= p <= chunk count). fl is the
// flight recorder to feed, or nil; it is a parameter rather than a load
// so the deterministic path can record its own (real, permuted) chunk
// events and hand dispatch a nil.
func (pl *Pool) dispatch(n, p, grain int, body func(lo, hi, worker int), fl *obs.FlightRecorder) {
	m := pl.metrics.Load()
	if p <= 1 {
		if m == nil && fl == nil {
			body(0, n, 0)
			return
		}
		var job uint32
		if fl != nil {
			job = fl.JobStart(n, grain, 1)
		}
		start := time.Now()
		body(0, n, 0)
		durNS := time.Since(start).Nanoseconds()
		if fl != nil {
			fl.ChunkClaim(job, 0, 0, n, durNS)
			fl.JobEnd(job, n, durNS)
		}
		if m != nil {
			m.Busy.Add(durNS)
			m.Chunks.Inc()
			m.Jobs.Inc()
			m.Imbalance.Set(1)
		}
		return
	}
	job := &poolJob{n: n, grain: grain, body: body, metrics: m, flight: fl}
	if m != nil {
		job.busy = make([]int64, p)
	}
	var start time.Time
	if fl != nil {
		job.flightJob = fl.JobStart(n, grain, p)
		start = time.Now()
	}
	slots := pl.grab(p - 1)
	job.wg.Add(len(slots))
	for i, s := range slots {
		pl.tasks[s] <- poolTask{job: job, id: i + 1}
	}
	job.run(0)
	job.wg.Wait()
	if fl != nil {
		fl.JobEnd(job.flightJob, n, time.Since(start).Nanoseconds())
	}
	if m != nil {
		m.Jobs.Inc()
		r := jobImbalance(job.busy)
		m.Imbalance.Set(r)
		if m.OnJob != nil {
			m.OnJob(r)
		}
	}
}

// jobImbalance is max busy time over mean busy time across the workers
// that did any work: 1.0 means a perfectly balanced pass, k means one
// worker carried k times its share. Workers recruited but starved of
// chunks are excluded so small jobs don't read as pathological.
func jobImbalance(busy []int64) float64 {
	var sum, max int64
	active := 0
	for _, b := range busy {
		if b <= 0 {
			continue
		}
		active++
		sum += b
		if b > max {
			max = b
		}
	}
	if active == 0 || sum == 0 {
		return 1
	}
	return float64(max) * float64(active) / float64(sum)
}

// Close shuts the pool's workers down. It must not be called
// concurrently with job submission; it exists so tests can verify pools
// do not leak goroutines. A closed pool still executes jobs correctly,
// on the submitting goroutine alone. The package-level default pool is
// never closed.
func (pl *Pool) Close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	idle := pl.idle
	pl.idle = nil
	pl.mu.Unlock()
	for _, s := range idle {
		close(pl.tasks[s])
	}
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the process-wide pool (size GOMAXPROCS, created
// lazily) that backs the package-level For/ForRange/ForEdgeRange
// functions.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

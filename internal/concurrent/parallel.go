// Package concurrent provides the shared-memory parallel primitives that
// underpin every algorithm in this repository: a dynamically scheduled
// parallel-for, parallel reductions, parallel prefix sums, and concurrent
// bitmaps.
//
// The package replaces the OpenMP runtime used by the paper's C++
// implementation. Work is distributed in fixed-size chunks claimed from an
// atomic counter (equivalent to OpenMP's schedule(dynamic, grain)), which
// keeps load balanced even when per-index cost is highly skewed — the
// common case for power-law graphs.
package concurrent

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the default number of indices claimed by a worker at a
// time in For and related functions. It is large enough to amortize the
// atomic fetch-add and small enough to balance skewed work.
const DefaultGrain = 1024

// Procs returns the effective parallelism: p if p > 0, else GOMAXPROCS.
func Procs(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// For runs body(i) for every i in [0, n) using p workers (p <= 0 means
// GOMAXPROCS). Indices are claimed dynamically in chunks of DefaultGrain.
// It returns once all iterations complete.
func For(n, p int, body func(i int)) {
	ForGrain(n, p, DefaultGrain, body)
}

// ForGrain is For with an explicit chunk size. grain <= 0 is treated as
// DefaultGrain.
func ForGrain(n, p, grain int, body func(i int)) {
	ForRange(n, p, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForWorker is like For but also passes the worker id in [0, p) to the
// body, which algorithms use for per-worker scratch space and for the
// memory-trace instrumentation of Fig 7.
func ForWorker(n, p, grain int, body func(i, worker int)) {
	ForRange(n, p, grain, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			body(i, worker)
		}
	})
}

// ForRange distributes [0, n) across workers in dynamically claimed
// half-open chunks [lo, hi), invoking body(lo, hi, worker) once per chunk.
// This is the primitive the other For variants build on; algorithms that
// want to hoist per-chunk state (e.g. local counters) call it directly.
// Jobs run on the persistent default pool, so no goroutines are spawned
// per call; worker ids are dense in [0, w) for w <= Procs(p)
// participants, with the calling goroutine always worker 0.
func ForRange(n, p, grain int, body func(lo, hi, worker int)) {
	DefaultPool().ForRange(n, p, grain, body)
}

// forRangeSpawn is the original spawn-per-call scheduler, kept as the
// reference implementation for the pool equivalence tests. The worker
// count is capped at the chunk count ceil(n/grain) so small domains
// never spawn workers that would find the ticket counter exhausted.
func forRangeSpawn(n, p, grain int, body func(lo, hi, worker int)) {
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
	if p <= 1 {
		body(0, n, 0)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi, worker)
			}
		}(w)
	}
	wg.Wait()
}

// ForStatic splits [0, n) into exactly p contiguous blocks, one per
// worker. Unlike ForRange there is no dynamic claiming; this matches
// OpenMP's schedule(static) and gives deterministic index->worker
// assignment, which the memory-trace experiments rely on.
func ForStatic(n, p int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	p = Procs(p)
	if p > n {
		p = n
	}
	if p <= 1 {
		body(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(worker int) {
			defer wg.Done()
			lo := n * worker / p
			hi := n * (worker + 1) / p
			if lo < hi {
				body(lo, hi, worker)
			}
		}(w)
	}
	wg.Wait()
}

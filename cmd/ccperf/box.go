package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Control kernels: two fixed single-thread loops that involve none of
// the code under test. They run between timed sets, so a change in the
// box (a noisy neighbour, a slower memory path) shows up in them as well
// as in the workload's numbers, while a change in the code shows up in
// the workload's numbers alone.
const (
	spinIters   = 1 << 24   // box.spin_ns: one multiply-add chain step
	gatherBytes = 256 << 20 // box.gather_ns: array the random reads span
	gatherReads = 1 << 19   // dependent random 8-byte reads per sample
	boxSamples  = 3         // samples per control set (median reported)
	driftPct    = 5.0       // a set median this far from the first flags drift
)

// box holds the gather array outside the Go heap, so it neither counts
// toward live_heap_mb nor gets scanned by the collector.
type box struct {
	mem    []byte
	words  []uint64
	spin   [][]float64 // per control set: spin samples, ns per step
	gather [][]float64 // per control set: gather samples, ns per read
	sink   uint64
}

func newBox() (*box, error) {
	mem, err := syscall.Mmap(-1, 0, gatherBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("ccperf: mapping the %d MiB control array: %w", gatherBytes>>20, err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), gatherBytes/8)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return &box{mem: mem, words: words}, nil
}

func (b *box) close() {
	if b.mem != nil {
		syscall.Munmap(b.mem)
		b.mem, b.words = nil, nil
	}
}

// control runs one set of both kernels on a locked OS thread, after a
// collection so no background marking competes with them.
func (b *box) control() {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var spin, gather []float64
	for s := 0; s < boxSamples; s++ {
		t := time.Now()
		x := uint64(s) + 1
		for i := 0; i < spinIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spin = append(spin, float64(time.Since(t))/spinIters)

		// Each read's address depends on the previous read's value, so
		// the loads serialize and the loop measures memory latency.
		mask := uint64(len(b.words) - 1)
		idx, r := x&mask, x
		t = time.Now()
		for i := 0; i < gatherReads; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			idx = (b.words[idx] ^ r) & mask
		}
		gather = append(gather, float64(time.Since(t))/gatherReads)
		b.sink += x + idx
	}
	b.spin = append(b.spin, spin)
	b.gather = append(b.gather, gather)
}

// report adds box.spin_ns, box.gather_ns (medians over every sample)
// and box.drift_pct (the largest move of a set median away from the
// first set's), and returns a note when the drift passes driftPct.
func (b *box) report(m metrics) string {
	var worst float64
	var worstName string
	for _, k := range []struct {
		name string
		sets [][]float64
	}{{"spin", b.spin}, {"gather", b.gather}} {
		var all []float64
		var first float64
		for i, set := range k.sets {
			med := median(append([]float64(nil), set...))
			if i == 0 {
				first = med
			} else if d := 100 * math.Abs(med/first-1); d > worst {
				worst, worstName = d, k.name
			}
			all = append(all, set...)
		}
		m["box."+k.name+"_ns"] = median(all)
	}
	m["box.drift_pct"] = worst
	if worst > driftPct {
		return fmt.Sprintf("box drift: the %s control moved %.1f%% between sets; numbers from this run mix code and box effects", worstName, worst)
	}
	return ""
}

// setClock splits a timed phase of the given length into four sets
// with a box control set after each; only time handed to add counts
// toward the length.
type setClock struct {
	length, elapsed time.Duration
	next            int
	b               *box
}

const timedSets = 4

func newSetClock(seconds float64, b *box) *setClock {
	return &setClock{length: time.Duration(seconds * float64(time.Second)), next: 1, b: b}
}

func (c *setClock) add(d time.Duration) { c.elapsed += d }

// controls runs the control set of every boundary the phase has
// passed; call it when the system under test is idle.
func (c *setClock) controls() {
	for c.next <= timedSets && c.elapsed >= c.length*time.Duration(c.next)/timedSets {
		c.b.control()
		c.next++
	}
}

func (c *setClock) done() bool { return c.elapsed >= c.length }

// quarter is the quarter of the phase the next op starts in.
func (c *setClock) quarter() int { return quarterOf(c.elapsed, c.length) }

// cpuNow returns the process's user + system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcPause returns the process's cumulative GC stop-the-world pause.
func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// peakRSSMB is the process's resident-set high-water mark in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// liveHeapMB is the smallest of several heapMB readings spaced apart,
// so an object a background loop is building at one reading (a serving
// snapshot) does not count as held.
func liveHeapMB() float64 {
	best := heapMB()
	for i := 1; i < 5; i++ {
		time.Sleep(60 * time.Millisecond)
		best = min(best, heapMB())
	}
	return best
}

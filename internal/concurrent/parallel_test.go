package concurrent

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 1000, 4096, 100_000} {
		for _, p := range []int{0, 1, 2, 3, 8} {
			hits := make([]int32, n)
			For(n, p, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, h)
				}
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	const n = 10_000
	hits := make([]int32, n)
	ForGrain(n, 4, 7, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	const n = 50_000
	const p = 4
	var bad atomic.Int64
	ForWorker(n, p, 64, func(_, w int) {
		if w < 0 || w >= p {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d iterations saw out-of-range worker ids", bad.Load())
	}
}

func TestForRangeChunksPartitionDomain(t *testing.T) {
	const n = 12_345
	seen := make([]int32, n)
	ForRange(n, 8, 100, func(lo, hi, _ int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestForStaticBlocksAreContiguousAndComplete(t *testing.T) {
	for _, n := range []int{1, 5, 64, 1_000} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			covered := make([]int32, n)
			workerOf := make([]int32, n)
			ForStatic(n, p, func(lo, hi, w int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
					atomic.StoreInt32(&workerOf[i], int32(w))
				}
			})
			for i := range covered {
				if covered[i] != 1 {
					t.Fatalf("n=%d p=%d: index %d covered %d times", n, p, i, covered[i])
				}
			}
			// Worker assignment must be non-decreasing (contiguous blocks).
			for i := 1; i < n; i++ {
				if workerOf[i] < workerOf[i-1] {
					t.Fatalf("n=%d p=%d: worker ids not contiguous at %d", n, p, i)
				}
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-5, 4, func(int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestProcs(t *testing.T) {
	if Procs(3) != 3 {
		t.Fatalf("Procs(3) = %d", Procs(3))
	}
	if Procs(0) < 1 {
		t.Fatalf("Procs(0) = %d", Procs(0))
	}
	if Procs(-1) < 1 {
		t.Fatalf("Procs(-1) = %d", Procs(-1))
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 40_000)
	var want int64
	for i := range vals {
		vals[i] = int64(rng.Intn(1000)) - 500
		want += vals[i]
	}
	got := SumInt64(len(vals), 0, func(i int) int64 { return vals[i] })
	if got != want {
		t.Fatalf("SumInt64 = %d, want %d", got, want)
	}
}

func TestExclusiveScanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 100, 4095, 4096, 4097, 50_000} {
		src := make([]int64, n)
		for i := range src {
			src[i] = int64(rng.Intn(100))
		}
		got := ExclusiveScan(src, 0)
		if len(got) != n+1 {
			t.Fatalf("n=%d: len=%d", n, len(got))
		}
		var run int64
		for i := 0; i <= n; i++ {
			if got[i] != run {
				t.Fatalf("n=%d: out[%d]=%d want %d", n, i, got[i], run)
			}
			if i < n {
				run += src[i]
			}
		}
	}
}

func TestExclusiveScanQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		src := make([]int64, len(raw))
		for i, v := range raw {
			src[i] = int64(v)
		}
		got := ExclusiveScan(src, 3)
		var run int64
		for i := range src {
			if got[i] != run {
				return false
			}
			run += src[i]
		}
		return got[len(src)] == run
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveScanInts(t *testing.T) {
	src := []int32{5, 0, 2, 7}
	got := ExclusiveScanInts(src, 2)
	want := []int64{0, 5, 5, 7, 14}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d]=%d want %d", i, got[i], want[i])
		}
	}
}

func BenchmarkForParallelOverhead(b *testing.B) {
	const n = 1 << 20
	dst := make([]int64, n)
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		For(n, 0, func(i int) { dst[i] = int64(i) * 3 })
	}
}

func BenchmarkExclusiveScan1M(b *testing.B) {
	const n = 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i & 15)
	}
	b.ReportAllocs()
	for it := 0; it < b.N; it++ {
		_ = ExclusiveScan(src, 0)
	}
}

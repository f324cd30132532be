package concurrent

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		if !b.Set(i) {
			t.Fatalf("Set(%d) returned false on fresh bit", i)
		}
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		if b.Set(i) {
			t.Fatalf("second Set(%d) returned true", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
}

func TestBitmapSetExactlyOnceUnderContention(t *testing.T) {
	const n = 1 << 12
	const attemptsPerBit = 8
	b := NewBitmap(n)
	var wins atomic.Int64
	For(n*attemptsPerBit, 8, func(i int) {
		if b.Set(i % n) {
			wins.Add(1)
		}
	})
	if wins.Load() != n {
		t.Fatalf("wins = %d, want %d (exactly one winner per bit)", wins.Load(), n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

func TestBitmapReset(t *testing.T) {
	b := NewBitmap(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count after Reset = %d", b.Count())
	}
}

func TestBitmapCountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBitmap(1000)
	ref := make(map[int]bool)
	for k := 0; k < 500; k++ {
		i := rng.Intn(1000)
		b.Set(i)
		ref[i] = true
	}
	if b.Count() != len(ref) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(ref))
	}
	for i := 0; i < 1000; i++ {
		if b.Get(i) != ref[i] {
			t.Fatalf("bit %d: got %v want %v", i, b.Get(i), ref[i])
		}
	}
}

func BenchmarkBitmapSet(b *testing.B) {
	bm := NewBitmap(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bm.Set(i & (1<<20 - 1))
	}
}

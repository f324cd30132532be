package concurrent

import (
	"math/bits"
	"sync/atomic"
)

// Bitmap is a fixed-size bitmap safe for concurrent Set/Get. It backs the
// visited sets of the BFS-based baselines and the bottom-up frontier of
// direction-optimizing BFS.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap holding n bits, all zero.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether bit i is set. It uses an atomic load so it can race
// with concurrent Set calls.
func (b *Bitmap) Get(i int) bool {
	w := atomic.LoadUint64(&b.words[i>>6])
	return w&(1<<(uint(i)&63)) != 0
}

// Set sets bit i, returning true if this call changed it from 0 to 1.
// The test-and-set is atomic, so exactly one of several concurrent
// setters of the same bit observes true.
func (b *Bitmap) Set(i int) bool {
	addr := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// Reset clears all bits. Not safe for use concurrently with Set/Get.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of set bits. Not atomic with respect to
// concurrent mutation.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

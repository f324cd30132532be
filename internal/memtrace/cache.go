package memtrace

import "fmt"

// CacheConfig describes a set-associative LRU cache for trace replay,
// quantifying the locality argument of Section V-C: Afforest's
// neighbor rounds touch π sequentially and concentrate root accesses
// near the front of the array, so its traces should hit cache more
// often than SV's all-edges-every-iteration hook pattern.
type CacheConfig struct {
	Sets      int // number of sets
	Ways      int // associativity
	LineBytes int // cache line size
	EntrySize int // bytes per π entry (4 for uint32)
}

// DefaultL1 models a conventional 32 KiB, 8-way, 64-byte-line L1D.
func DefaultL1() CacheConfig {
	return CacheConfig{Sets: 64, Ways: 8, LineBytes: 64, EntrySize: 4}
}

// CacheStats summarizes a replay.
type CacheStats struct {
	Accesses int64
	Hits     int64
	Misses   int64
}

// HitRate returns Hits/Accesses (0 for an empty trace).
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// String renders the stats on one line.
func (s CacheStats) String() string {
	return fmt.Sprintf("accesses=%d hits=%d misses=%d hit-rate=%.1f%%",
		s.Accesses, s.Hits, s.Misses, 100*s.HitRate())
}

// lruCache is a set-associative cache with true-LRU replacement,
// tracking line tags only (the replay cares about hit/miss, not data).
type lruCache struct {
	cfg  CacheConfig
	sets [][]int64 // per set: line tags, most recent first
}

func newLRUCache(cfg CacheConfig) *lruCache {
	c := &lruCache{cfg: cfg, sets: make([][]int64, cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]int64, 0, cfg.Ways)
	}
	return c
}

// access touches the line containing byte address addr and reports hit.
func (c *lruCache) access(addr int64) bool {
	line := addr / int64(c.cfg.LineBytes)
	set := c.sets[int(line)%c.cfg.Sets]
	for i, tag := range set {
		if tag == line {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	// Miss: insert at MRU, evicting LRU if full.
	if len(set) < c.cfg.Ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = line
	c.sets[int(line)%c.cfg.Sets] = set
	return false
}

// SimulateCache replays the trace's π accesses in global order through
// a single shared cache (a shared-LLC view).
func (t *Trace) SimulateCache(cfg CacheConfig) CacheStats {
	cache := newLRUCache(cfg)
	var st CacheStats
	for _, acc := range t.Accesses {
		st.Accesses++
		if cache.access(int64(acc.Index) * int64(cfg.EntrySize)) {
			st.Hits++
		} else {
			st.Misses++
		}
	}
	return st
}

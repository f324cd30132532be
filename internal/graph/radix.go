package graph

import "sort"

// radixMinLen is the shortest row sortRow radix-sorts. Shorter rows use
// insertion sort: radix passes cannot amortize on tiny lists.
// BenchmarkRadixSortV4096 and BenchmarkStdSort4096 compare the radix
// sort with the standard library's comparison sort at 4096 elements.
const radixMinLen = 64

// sortRow sorts one adjacency row in place for Build. A row that is
// already strictly increasing is left alone, a short one is
// insertion-sorted, and a long one is radix-sorted with buf, at least
// as long as a, as the second array.
func sortRow(a, buf []V) {
	switch {
	case len(a) < 2 || sortedUnique(a):
	case len(a) < radixMinLen:
		insertionSortV(a)
	default:
		radixSortV(a, buf)
	}
}

func insertionSortV(a []V) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// radixSortV sorts a in place by four 8-bit LSD passes through buf,
// skipping passes whose byte is constant across the slice (common: high
// bytes of small vertex ids).
func radixSortV(a, buf []V) {
	src, dst := a, buf[:len(a)]
	swapped := false
	for shift := uint(0); shift < 32; shift += 8 {
		var count [257]int
		var orMask, andMask V
		andMask = ^V(0)
		for _, x := range src {
			orMask |= x
			andMask &= x
		}
		if (orMask>>shift)&0xff == (andMask>>shift)&0xff {
			continue // this byte is identical everywhere
		}
		for _, x := range src {
			count[(x>>shift)&0xff+1]++
		}
		for i := 1; i < 257; i++ {
			count[i] += count[i-1]
		}
		for _, x := range src {
			b := (x >> shift) & 0xff
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(a, src)
	}
}

// sortedUnique reports whether a is strictly increasing (sorted and
// duplicate-free) — a fast pre-check sortRow uses to skip work.
func sortedUnique(a []V) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
}

// SortAdjacencyCheck verifies every adjacency list is sorted; the
// builder's tests use it.
func SortAdjacencyCheck(g *CSR) bool {
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(V(v))
		if !sort.SliceIsSorted(adj, func(a, b int) bool { return adj[a] < adj[b] }) {
			return false
		}
	}
	return true
}

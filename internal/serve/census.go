package serve

import (
	"cmp"
	"math"
	"slices"

	"afforest/internal/graph"
)

// Snapshot is a point-in-time export of the served labeling, cut on
// demand by Server.Refresh. Its slice is an owned copy, never mutated
// after Refresh returns.
type Snapshot struct {
	// Labels is the compressed component labeling (labels[v] == labels[u]
	// iff u, v were connected when the snapshot was cut). Labels are the
	// component minima.
	Labels []graph.V
}

// Component is one census entry.
type Component struct {
	Label graph.V `json:"label"`
	Size  int     `json:"size"`
}

// byRank orders the census: larger components first, ties by smaller
// label.
func byRank(a, b Component) int {
	return cmp.Or(cmp.Compare(b.Size, a.Size), cmp.Compare(a.Label, b.Label))
}

// topComponents scans the per-root size table (zero for non-roots) and
// returns the component count and the k largest components in census
// order. Candidates are trimmed back to k whenever they reach 2k, so
// the scan keeps O(k) entries.
func topComponents(sizes []int32, k int) (int, []Component) {
	top := []Component{}
	count := 0
	// Labels are scanned in ascending order, so once k candidates are
	// kept a newcomer outranks the k-th only by being strictly larger:
	// sizes at or below floor cannot enter.
	floor := int32(0)
	if k <= 0 {
		floor = math.MaxInt32
	}
	for r, size := range sizes {
		count += int(min(size, 1)) // branch-free: roots are scattered
		if size <= floor {
			continue
		}
		top = append(top, Component{Label: graph.V(r), Size: int(size)})
		if len(top) == 2*k {
			slices.SortFunc(top, byRank)
			top, floor = top[:k], int32(top[k-1].Size)
		}
	}
	slices.SortFunc(top, byRank)
	return count, top[:min(k, len(top))]
}

package serve

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"afforest/internal/graph"
)

// TestTopComponents checks the bounded-heap scan against a full sort,
// on size tables dense with ties, for every k from none to more than
// the component count.
func TestTopComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		sizes := make([]int32, 1+rng.Intn(200))
		var all []Component
		for r := range sizes {
			if rng.Intn(3) == 0 {
				sizes[r] = int32(1 + rng.Intn(4))
				all = append(all, Component{Label: graph.V(r), Size: int(sizes[r])})
			}
		}
		slices.SortFunc(all, func(a, b Component) int {
			return cmp.Or(cmp.Compare(b.Size, a.Size), cmp.Compare(a.Label, b.Label))
		})
		for _, k := range []int{0, 1, 3, len(all), len(all) + 5} {
			count, top := topComponents(sizes, k)
			want := all[:min(k, len(all))]
			if count != len(all) || !slices.Equal(top, want) {
				t.Fatalf("k=%d: got %d components, top %v; want %d, %v", k, count, top, len(all), want)
			}
		}
	}
}

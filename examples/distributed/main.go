// Distributed demonstrates the paper's future-work direction (§VII):
// running Afforest-style connectivity on a message-passing cluster. It
// boots an in-process loopback cluster (real shards behind real TCP
// listeners), where each shard computes local forests with Afforest's
// link/compress and reconciles boundary labels in BSP exchange rounds;
// the printout compares its communication volume against classic
// halo-exchange Label Propagation on the same partitioning.
package main

import (
	"fmt"
	"log"

	"afforest/internal/cluster"
	"afforest/internal/dist"
	"afforest/internal/gen"
	"afforest/internal/graph"
)

func main() {
	g := gen.Road(1<<17, 11)
	fmt.Printf("road graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())
	_, sizes := graph.SequentialCC(g)

	fmt.Printf("%-6s  %-30s  %-28s  %s\n", "shards", "cluster (afforest shards)", "label-propagation", "traffic saved")
	for _, shards := range []int{2, 4, 8, 16} {
		labelsC, stC := loadCluster(g, shards)
		labelsL, stL := dist.LP(g, shards)
		if countDistinct(labelsC) != len(sizes) || countDistinct(labelsL) != len(sizes) {
			log.Fatalf("component count mismatch at %d shards", shards)
		}
		fmt.Printf("%-6d  rounds=%-3d opinions=%-12d  rounds=%-3d msgs=%-12d  %.1fx\n",
			shards, stC.Rounds, stC.Opinions, stL.Rounds, stL.Messages,
			float64(stL.Messages)/float64(max(stC.Opinions, 1)))
	}
	fmt.Println("\nboth schemes agree with the sequential oracle on every shard count")
}

// loadCluster loads g into a fresh loopback cluster of the given
// width and returns the assembled global labeling and the load's wire
// tallies.
func loadCluster(g *graph.CSR, shards int) ([]graph.V, cluster.RouterStats) {
	l, err := cluster.StartLocal(g.NumVertices(), shards, cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	if err := l.Router.LoadGraph(g); err != nil {
		log.Fatal(err)
	}
	st := l.Router.Stats()
	labels, err := l.Router.GlobalLabels()
	if err != nil {
		log.Fatal(err)
	}
	return labels, st
}

func countDistinct(labels []graph.V) int {
	m := map[graph.V]bool{}
	for _, l := range labels {
		m[l] = true
	}
	return len(m)
}

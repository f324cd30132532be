// Command gengraph generates the synthetic benchmark graphs of the
// paper's Table III suite (and the other generator families) and writes
// them to disk in binary .csr or text edge-list format, optionally
// printing their statistics.
//
// Examples:
//
//	gengraph -suite road -scale 18 -out road.csr -stats
//	gengraph -gen urand-f -n 65536 -deg 16 -f 0.01 -out many.el
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"afforest/internal/gen"
	"afforest/internal/graph"
)

func main() {
	var (
		suite   = flag.String("suite", "", "suite graph: "+strings.Join(gen.SuiteNames(), " | "))
		genName = flag.String("gen", "", "free generator: "+strings.Join(slices.Insert(gen.Generators(), 1, "urand-f"), " | "))
		scale   = flag.Int("scale", 16, "log2 vertices for -suite / -gen kron")
		n       = flag.Int("n", 1<<16, "vertices for free generators")
		deg     = flag.Int("deg", 16, "degree parameter")
		f       = flag.Float64("f", 1.0, "component fraction for -gen urand-f")
		seed    = flag.Uint64("seed", 42, "generator seed")
		out     = flag.String("out", "", "output path (.csr binary, otherwise edge list); empty = stats only")
		stats   = flag.Bool("stats", false, "print Table III-style statistics")
	)
	flag.Parse()

	g, err := build(*suite, *genName, *scale, *n, *deg, *f, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	fmt.Printf("generated: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	if *stats {
		s := graph.ComputeStats(g, int64(*seed))
		fmt.Println(s)
	}
	if *out != "" {
		if err := graph.SaveFile(*out, g); err != nil {
			fmt.Fprintln(os.Stderr, "gengraph:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	} else if !*stats {
		fmt.Println("(no -out and no -stats: nothing else to do)")
	}
}

func build(suite, genName string, scale, n, deg int, f float64, seed uint64) (*graph.CSR, error) {
	switch {
	case suite != "" && genName != "":
		return nil, fmt.Errorf("-suite and -gen are mutually exclusive")
	case suite != "":
		sg, err := gen.ByName(suite)
		if err != nil {
			return nil, err
		}
		return sg.Build(scale, seed), nil
	case genName == "urand-f":
		return gen.URandComponents(n, deg, f, seed), nil
	case genName != "":
		return gen.Generate(genName, n, scale, deg, seed)
	default:
		return nil, fmt.Errorf("provide -suite NAME or -gen NAME")
	}
}

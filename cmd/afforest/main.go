// Command afforest computes connected components of a graph, reading it
// from a file or generating a synthetic one, and reports the census and
// timing. It is the CLI face of the library's public API.
//
// Examples:
//
//	afforest -gen urand -n 1048576 -deg 16
//	afforest -in graph.el -algo dobfs -validate
//	afforest -gen kron -scale 20 -algo sv -repeat 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"afforest"
	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/memtrace"
	"afforest/internal/obs"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph file (.csr binary or text edge list); mutually exclusive with -gen")
		genName  = flag.String("gen", "", "generate a graph: urand | kron | road | twitter | web | regular")
		n        = flag.Int("n", 1<<16, "vertices for -gen (urand/road/twitter/web/regular)")
		scale    = flag.Int("scale", 16, "log2 vertices for -gen kron")
		deg      = flag.Int("deg", 16, "average degree / edge factor / attach count for -gen")
		seed     = flag.Uint64("seed", 42, "generator seed")
		algoName = flag.String("algo", "afforest", "algorithm: afforest | afforest-noskip | sv | sv-edgelist | lp | lp-datadriven | bfs | dobfs | serial-uf")
		rounds   = flag.Int("rounds", 0, "Afforest neighbor rounds (0 = paper default of 2)")
		par      = flag.Int("p", 0, "parallelism (0 = GOMAXPROCS)")
		repeat   = flag.Int("repeat", 1, "timed repetitions (reports each)")
		validate = flag.Bool("validate", false, "validate the labeling against a sequential oracle")
		topK     = flag.Int("top", 5, "print the K largest component sizes")
		memTrace = flag.String("memtrace", "", "write a Fig 7-style π access trace (TSV) to this path and print the heat-map (afforest algorithms only)")
		trace    = flag.String("trace", "", "write the run's phase tree as JSON lines to this path and print the per-phase breakdown (afforest algorithms only)")
		flight   = flag.String("flight", "", "record the run on the flight recorder, write the per-worker event stream (JSONL) to this path, and print the worker timeline (afforest algorithms only)")
	)
	flag.Parse()

	g, err := loadOrGenerate(*in, *genName, *n, *scale, *deg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "afforest:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	if *memTrace != "" {
		if err := writeTrace(*in, *genName, *n, *scale, *deg, *seed, *algoName, *rounds, *memTrace); err != nil {
			fmt.Fprintln(os.Stderr, "afforest:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != "" {
		if err := writePhaseTrace(*in, *genName, *n, *scale, *deg, *seed, *algoName, *rounds, *par, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "afforest:", err)
			os.Exit(1)
		}
		return
	}
	if *flight != "" {
		if err := writeFlight(*in, *genName, *n, *scale, *deg, *seed, *algoName, *rounds, *par, *flight); err != nil {
			fmt.Fprintln(os.Stderr, "afforest:", err)
			os.Exit(1)
		}
		return
	}

	opt := afforest.Options{
		Algorithm:      afforest.Algorithm(*algoName),
		NeighborRounds: *rounds,
		Parallelism:    *par,
		Seed:           *seed,
	}
	var res *afforest.Result
	for i := 0; i < *repeat; i++ {
		start := time.Now()
		r, err := afforest.ConnectedComponentsChecked(g, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "afforest:", err)
			os.Exit(1)
		}
		fmt.Printf("run %d: %v (%s)\n", i+1, time.Since(start).Round(time.Microsecond), *algoName)
		res = r
	}

	fmt.Printf("components: %d\n", res.NumComponents())
	sizes := res.ComponentSizes()
	if len(sizes) > *topK {
		sizes = sizes[:*topK]
	}
	fmt.Printf("largest components: %v\n", sizes)

	if *validate {
		if err := afforest.Validate(g, res); err != nil {
			fmt.Fprintln(os.Stderr, "VALIDATION FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("validation: ok")
	}
}

// writeTrace records every π access of a traced run and writes the
// full-resolution TSV, printing the binned heat-map to stdout.
func writeTrace(in, genName string, n, scale, deg int, seed uint64, algoName string, rounds int, path string) error {
	g, err := loadOrGenerateCSR(in, genName, n, scale, deg, seed)
	if err != nil {
		return err
	}
	if rounds == 0 {
		rounds = 2
	}
	var tr *memtrace.Trace
	switch algoName {
	case "afforest":
		tr, _ = memtrace.TracedAfforest(g, rounds, true, 8)
	case "afforest-noskip":
		tr, _ = memtrace.TracedAfforest(g, rounds, false, 8)
	case "sv":
		tr, _ = memtrace.TracedSV(g, 8)
	default:
		return fmt.Errorf("-trace supports afforest | afforest-noskip | sv, not %q", algoName)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteTSV(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("trace: %d accesses written to %s\n", len(tr.Accesses), path)
	fmt.Print(tr.BuildHeatmap(24, 72).Render())
	return nil
}

// writePhaseTrace runs the core algorithm with a span tracer attached,
// writes the phase tree as JSON lines, and prints the per-phase
// breakdown table.
func writePhaseTrace(in, genName string, n, scale, deg int, seed uint64, algoName string, rounds, par int, path string) error {
	g, err := loadOrGenerateCSR(in, genName, n, scale, deg, seed)
	if err != nil {
		return err
	}
	var skip bool
	switch algoName {
	case "afforest":
		skip = true
	case "afforest-noskip":
		skip = false
	default:
		return fmt.Errorf("-trace supports afforest | afforest-noskip, not %q", algoName)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Buffer the sink: span emission between phases must not put a write
	// syscall on the run's critical path.
	bw := bufio.NewWriter(f)
	tracer := obs.NewTracer(obs.NewJSONLSink(bw))
	start := time.Now()
	core.Run(g, core.Options{
		NeighborRounds: rounds,
		SkipLargest:    skip,
		Parallelism:    par,
		Seed:           seed,
		Observer:       tracer,
	})
	elapsed := time.Since(start)
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep := tracer.Report()
	fmt.Printf("trace: %d spans written to %s (run %v)\n",
		len(rep.Spans), path, elapsed.Round(time.Microsecond))
	return rep.WriteBreakdown(os.Stdout)
}

// writeFlight runs the core algorithm with the flight recorder on both
// the worker pool (chunk events) and the run's tracer (phase events),
// dumps the per-worker event stream as JSON lines, and prints the
// worker utilization timeline.
func writeFlight(in, genName string, n, scale, deg int, seed uint64, algoName string, rounds, par int, path string) error {
	g, err := loadOrGenerateCSR(in, genName, n, scale, deg, seed)
	if err != nil {
		return err
	}
	var skip bool
	switch algoName {
	case "afforest":
		skip = true
	case "afforest-noskip":
		skip = false
	default:
		return fmt.Errorf("-flight supports afforest | afforest-noskip, not %q", algoName)
	}
	fr := obs.NewFlightRecorder(concurrent.DefaultPool().Size(), 0)
	concurrent.DefaultPool().SetFlight(fr)
	defer concurrent.DefaultPool().SetFlight(nil)
	start := time.Now()
	core.Run(g, core.Options{
		NeighborRounds: rounds,
		SkipLargest:    skip,
		Parallelism:    par,
		Seed:           seed,
		Observer:       obs.NewTracer(fr),
	})
	elapsed := time.Since(start)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := fr.WriteJSONL(f, obs.DumpOptions{})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("flight: event stream written to %s (run %v)\n", path, elapsed.Round(time.Microsecond))
	return fr.WriteTimeline(os.Stdout, 0)
}

func loadOrGenerate(in, genName string, n, scale, deg int, seed uint64) (*afforest.Graph, error) {
	switch {
	case in != "" && genName != "":
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	case in != "":
		return afforest.LoadGraph(in)
	case genName != "":
		switch genName {
		case "urand":
			return afforest.GenerateURand(n, deg, seed), nil
		case "kron":
			return afforest.GenerateKronecker(scale, deg, seed), nil
		case "road":
			return afforest.GenerateRoad(n, seed), nil
		case "twitter":
			return afforest.GenerateTwitterLike(n, deg, seed), nil
		case "web":
			return afforest.GenerateWebLike(n, deg, seed), nil
		case "regular":
			return afforest.GenerateRegular(n, deg, seed), nil
		}
		return nil, fmt.Errorf("unknown generator %q", genName)
	default:
		return nil, fmt.Errorf("provide -in FILE or -gen NAME (try -gen urand)")
	}
}

// loadOrGenerateCSR mirrors loadOrGenerate at the internal CSR level
// for the trace mode, which needs the raw representation.
func loadOrGenerateCSR(in, genName string, n, scale, deg int, seed uint64) (*graph.CSR, error) {
	switch {
	case in != "" && genName != "":
		return nil, fmt.Errorf("-in and -gen are mutually exclusive")
	case in != "":
		return graph.LoadFile(in)
	case genName != "":
		switch genName {
		case "urand":
			return gen.URandDegree(n, deg, seed), nil
		case "kron":
			return gen.Kronecker(scale, deg, gen.Graph500, seed), nil
		case "road":
			return gen.Road(n, seed), nil
		case "twitter":
			return gen.TwitterLike(n, deg, seed), nil
		case "web":
			return gen.WebLike(n, deg, seed), nil
		case "regular":
			return gen.Regular(n, deg, seed), nil
		}
		return nil, fmt.Errorf("unknown generator %q", genName)
	default:
		return nil, fmt.Errorf("provide -in FILE or -gen NAME (try -gen urand)")
	}
}

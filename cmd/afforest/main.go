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
	"strings"
	"time"

	"afforest/internal/baselines"
	"afforest/internal/concurrent"
	"afforest/internal/core"
	"afforest/internal/gen"
	"afforest/internal/graph"
	"afforest/internal/memtrace"
	"afforest/internal/obs"
	"afforest/internal/validate"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph file (.csr binary or text edge list); mutually exclusive with -gen")
		genName  = flag.String("gen", "", "generate a graph: "+strings.Join(gen.Generators(), " | "))
		n        = flag.Int("n", 1<<16, "vertices for -gen (urand/road/twitter/web/regular)")
		scale    = flag.Int("scale", 16, "log2 vertices for -gen kron")
		deg      = flag.Int("deg", 16, "average degree / edge factor / attach count for -gen")
		seed     = flag.Uint64("seed", 42, "generator seed")
		algoName = flag.String("algo", "afforest", "algorithm: "+strings.Join(baselines.Names(), " | "))
		rounds   = flag.Int("rounds", 0, "Afforest neighbor rounds (0 = paper default of 2)")
		par      = flag.Int("p", 0, "parallelism (0 = GOMAXPROCS)")
		repeat   = flag.Int("repeat", 1, "timed repetitions (reports each)")
		check    = flag.Bool("validate", false, "validate the labeling against a sequential oracle")
		topK     = flag.Int("top", 5, "print the K largest component sizes")
		memTrace = flag.String("memtrace", "", "write a Fig 7-style π access trace (TSV) to this path and print the heat-map (afforest algorithms only)")
		trace    = flag.String("trace", "", "write the run's phase tree as JSON lines to this path and print the per-phase breakdown (afforest algorithms only)")
		flight   = flag.String("flight", "", "record the run on the flight recorder, write the per-worker event stream (JSONL) to this path, and print the worker timeline (afforest algorithms only)")
	)
	flag.Parse()

	g, err := gen.LoadOrGenerate(*in, *genName, *n, *scale, *deg, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	opt := core.Options{NeighborRounds: *rounds, Parallelism: *par, Seed: *seed}
	switch {
	case *memTrace != "":
		err = writeTrace(g, *algoName, *rounds, *memTrace)
	case *trace != "":
		err = writePhaseTrace(g, *algoName, opt, *trace)
	case *flight != "":
		err = writeFlight(g, *algoName, opt, *flight)
	default:
		err = run(g, *algoName, opt, *repeat, *topK, *check)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "afforest:", err)
	os.Exit(1)
}

// run times repeat runs of the named roster algorithm on g, then prints
// the census of the last one and, with check, validates it against the
// sequential oracle.
func run(g *graph.CSR, algoName string, opt core.Options, repeat, topK int, check bool) error {
	algo, err := baselines.Lookup(algoName)
	if err != nil {
		return err
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", repeat)
	}
	var labels []graph.V
	for i := 0; i < repeat; i++ {
		start := time.Now()
		labels = algo.Run(g, opt)
		fmt.Printf("run %d: %v (%s)\n", i+1, time.Since(start).Round(time.Microsecond), algoName)
	}
	census := validate.ComputeCensus(labels)
	fmt.Printf("components: %d\n", census.Components)
	sizes := census.Sizes
	if len(sizes) > topK {
		sizes = sizes[:topK]
	}
	fmt.Printf("largest components: %v\n", sizes)
	if check {
		if err := validate.Labeling(g, labels); err != nil {
			fmt.Fprintln(os.Stderr, "VALIDATION FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("validation: ok")
	}
	return nil
}

// writeTrace records every π access of a traced run and writes the
// full-resolution TSV, printing the binned heat-map to stdout.
func writeTrace(g *graph.CSR, algoName string, rounds int, path string) error {
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
func writePhaseTrace(g *graph.CSR, algoName string, opt core.Options, path string) error {
	algo, err := phased("-trace", algoName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Buffer the sink: span emission between phases must not put a write
	// syscall on the run's critical path.
	bw := bufio.NewWriter(f)
	tracer := obs.NewTracer(obs.NewJSONLSink(bw))
	opt.Observer = tracer
	start := time.Now()
	algo.Run(g, opt)
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
func writeFlight(g *graph.CSR, algoName string, opt core.Options, path string) error {
	algo, err := phased("-flight", algoName)
	if err != nil {
		return err
	}
	fr := obs.NewFlightRecorder(concurrent.DefaultPool().Size(), 0)
	concurrent.DefaultPool().SetFlight(fr)
	defer concurrent.DefaultPool().SetFlight(nil)
	opt.Observer = obs.NewTracer(fr)
	start := time.Now()
	algo.Run(g, opt)
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

// phased returns the roster entry called name when it is an Afforest
// variant: the entries with phases (Audited is set), whose runs report
// them to opt.Observer.
func phased(mode, name string) (baselines.Entry, error) {
	algo, err := baselines.Lookup(name)
	if err != nil || algo.Audited == nil {
		return algo, fmt.Errorf("%s supports afforest | afforest-noskip, not %q", mode, name)
	}
	return algo, nil
}

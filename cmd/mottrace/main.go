// Command mottrace generates the evaluation's mobility workloads and
// reports their statistics: per-object movement traces (random walk or
// random waypoint over the grid), query workloads, and the per-edge
// detection rates that the traffic-conscious baselines consume. Traces can
// be dumped as JSON for external tooling.
//
// Usage:
//
//	mottrace -grid 16x16 -objects 100 -moves 1000
//	mottrace -grid 8x8 -model waypoint -json trace.json
//
// Malformed flags, a bad -grid or -model, fewer than one object, a
// negative move or query count, and stray arguments exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mottrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gridSpec := fs.String("grid", "16x16", "grid dimensions WxH")
	objects := fs.Int("objects", 100, "number of mobile objects (at least 1)")
	moves := fs.Int("moves", 1000, "maintenance operations per object")
	queries := fs.Int("queries", 100, "number of queries")
	model := fs.String("model", "walk", "mobility model: walk or waypoint")
	seed := fs.Int64("seed", 1, "workload seed")
	jsonOut := fs.String("json", "", "write the full trace as JSON to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mottrace: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	models := map[string]mobility.Model{"walk": mobility.RandomWalk, "waypoint": mobility.RandomWaypoint}
	w, h, ok := graph.ParseGrid(*gridSpec)
	mdl, known := models[*model]
	switch {
	case fs.NArg() != 0:
		return usage("unexpected arguments %q", fs.Args())
	case !ok:
		return usage("invalid -grid %q: want WxH with W, H >= 1", *gridSpec)
	case !known:
		return usage("unknown -model %q: want walk or waypoint", *model)
	case *objects < 1:
		return usage("-objects %d: want at least 1", *objects)
	case *moves < 0:
		return usage("-moves %d: want at least 0", *moves)
	case *queries < 0:
		return usage("-queries %d: want at least 0", *queries)
	}

	g := graph.Grid(w, h)
	wl, err := mobility.Generate(g, graph.NewMetric(g), mobility.Config{
		Objects:        *objects,
		MovesPerObject: *moves,
		Queries:        *queries,
		Model:          mdl,
		Seed:           *seed,
	})
	if err != nil {
		return fatal(stderr, err)
	}

	fmt.Fprintf(stdout, "grid %dx%d (%d sensors), %d objects, %d moves, %d queries, model %s\n",
		w, h, g.N(), wl.Objects, len(wl.Moves), len(wl.Queries), *model)

	rates := wl.DetectionRates(g)
	var vals []float64
	for _, r := range rates {
		vals = append(vals, r)
	}
	sort.Float64s(vals)
	s := stats.Summarize(vals)
	fmt.Fprintf(stdout, "detection rates over %d of %d edges: mean %.1f, p50 %.0f, p95 %.0f, max %.0f\n",
		len(rates), g.M(), s.Mean, s.P50, s.P95, s.Max)

	// Move-distance sanity: every move crosses exactly one unit edge.
	finals := wl.FinalLocations()
	displaced := 0
	for o, f := range finals {
		if f != wl.Initial[o] {
			displaced++
		}
	}
	fmt.Fprintf(stdout, "objects displaced from start: %d/%d\n", displaced, wl.Objects)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, wl); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *jsonOut)
	}
	return 0
}

// writeJSON writes the workload to path as indented JSON; a failed Close
// (the write that flushes the file) is an error too.
func writeJSON(path string, wl *mobility.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(wl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mottrace: %v\n", err)
	return 1
}

// Command motablate quantifies MOT's design choices on one workload: the
// §3.1 parent-set probing, special parents, §5 load balancing under both
// surcharge pricings, the §6 general-network overlay, and the concurrent
// period gate — the ablation matrix DESIGN.md calls out.
//
// Usage:
//
//	motablate -grid 16x16 -objects 20 -moves 200
//
// Malformed flags, a bad -grid, fewer than one object, a negative move or
// query count, and stray arguments exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	mot "repro"
	"repro/internal/graph"
)

type variant struct {
	name string
	opt  mot.Options
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("motablate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gridSpec := fs.String("grid", "16x16", "grid dimensions WxH")
	objects := fs.Int("objects", 20, "number of objects (at least 1)")
	moves := fs.Int("moves", 200, "moves per object")
	queries := fs.Int("queries", 200, "queries")
	seed := fs.Int64("seed", 7, "workload and overlay seed")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "motablate: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	w, h, ok := graph.ParseGrid(*gridSpec)
	switch {
	case fs.NArg() != 0:
		return usage("unexpected arguments %q", fs.Args())
	case !ok:
		return usage("invalid -grid %q: want WxH with W, H >= 1", *gridSpec)
	case *objects < 1:
		return usage("-objects %d: want at least 1", *objects)
	case *moves < 0:
		return usage("-moves %d: want at least 0", *moves)
	case *queries < 0:
		return usage("-queries %d: want at least 0", *queries)
	}

	g := mot.Grid(w, h)
	m := mot.NewMetric(g)
	wl, err := mot.GenerateWorkload(g, m, mot.WorkloadConfig{
		Objects: *objects, MovesPerObject: *moves, Queries: *queries, Seed: *seed,
	})
	if err != nil {
		return fatal(stderr, err)
	}

	variants := []variant{
		{"base (simple paths, sigma=2)", mot.Options{Seed: *seed, SpecialParentOffset: 2}},
		{"parent sets (§3.1)", mot.Options{Seed: *seed, SpecialParentOffset: 2, UseParentSets: true}},
		{"no special parents", mot.Options{Seed: *seed, SpecialParentOffset: -1}},
		{"load balanced (§5)", mot.Options{Seed: *seed, SpecialParentOffset: 2, LoadBalance: true}},
		{"load balanced, surcharge counted", mot.Options{Seed: *seed, SpecialParentOffset: 2, LoadBalance: true, CountLBRouteCost: true}},
		{"general overlay (§6)", mot.Options{GeneralOverlay: true, SpecialParentOffset: 2}},
	}

	fmt.Fprintf(stdout, "grid %dx%d, %d objects, %d moves/object, %d queries\n\n", w, h, *objects, *moves, *queries)
	fmt.Fprintf(stdout, "%-36s %12s %12s %12s %12s %10s\n",
		"variant", "maint ratio", "query ratio", "sdl cost", "lb cost", "max load")
	for _, v := range variants {
		tr, err := mot.NewTrackerWithMetric(g, m, v.opt)
		if err != nil {
			return fatal(stderr, err)
		}
		meter, err := mot.Replay(tr, wl)
		if err != nil {
			return fatal(stderr, err)
		}
		load := tr.LoadByNode()
		maxLoad := 0
		for _, c := range load {
			if c > maxLoad {
				maxLoad = c
			}
		}
		fmt.Fprintf(stdout, "%-36s %12.2f %12.2f %12.0f %12.0f %10d\n",
			v.name, meter.MaintMeanRatio(), meter.QueryMeanRatio(),
			meter.SpecialCost, meter.LBRouteCost, maxLoad)
	}

	// Concurrent period-gate comparison on the same workload.
	fmt.Fprintln(stdout)
	for _, on := range []bool{false, true} {
		res, err := mot.RunConcurrent(g, wl, mot.ConcurrentOptions{Seed: *seed, PeriodSync: on})
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "concurrent, period gate %-5t: maint ratio %6.2f, query ratio %6.2f\n",
			on, res.Meter.MaintMeanRatio(), res.Meter.QueryMeanRatio())
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "motablate: %v\n", err)
	return 1
}

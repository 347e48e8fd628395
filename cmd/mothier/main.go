// Command mothier builds and inspects the tracking hierarchies: the
// constant-doubling overlay HS (§2.2) and the general-network
// sparse-partition overlay (§6). It prints level sizes, parent statistics,
// the measured doubling constant, and validates the structural invariants.
//
// Usage:
//
//	mothier -grid 16x16
//	mothier -grid 32x32 -seed 3 -parentsets
//	mothier -grid 16x16 -general
//	mothier -ring 64
//
// Malformed flags, a grid side or ring size too small to build, a
// -dpath sensor outside the network, and stray arguments exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
	"repro/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mothier", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gridSpec := fs.String("grid", "16x16", "grid dimensions WxH")
	ring := fs.Int("ring", 0, "build a ring of this size (at least 3) instead of a grid")
	seed := fs.Int64("seed", 1, "MIS seed")
	parentSets := fs.Bool("parentsets", false, "build detection paths over full parent sets (§3.1)")
	general := fs.Bool("general", false, "build the §6 sparse-partition overlay instead of HS")
	sigma := fs.Int("sigma", 2, "special-parent level offset (0 = theoretical, <0 = disabled)")
	node := fs.Int("dpath", -1, "print the detection path of this sensor (-1 = none)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mothier: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	ringSet := false
	fs.Visit(func(f *flag.Flag) { ringSet = ringSet || f.Name == "ring" })

	var g *graph.Graph
	if ringSet {
		if *ring < 3 {
			return usage("-ring %d: want at least 3 sensors", *ring)
		}
		g = graph.Ring(*ring)
	} else {
		w, h, ok := parseGrid(*gridSpec)
		if !ok {
			return usage("invalid -grid %q: want WxH with W, H >= 1", *gridSpec)
		}
		g = graph.Grid(w, h)
	}
	if *node < -1 || *node >= g.N() {
		return usage("-dpath %d: want a sensor in [0, %d) or -1", *node, g.N())
	}
	m := graph.NewMetric(g)
	m.Precompute(0)
	fmt.Fprintf(stdout, "network: %v, diameter %.0f\n", g, m.Diameter())

	var ov overlay.Overlay
	if *general {
		hs, err := partition.Build(g, m, partition.Config{SpecialParentOffset: *sigma})
		if err != nil {
			return fatal(stderr, err)
		}
		if err := hs.Validate(); err != nil {
			return fatal(stderr, err)
		}
		st := hs.Stats()
		fmt.Fprintf(stdout, "sparse partition: height %d, sigma %d\n", st.Height, st.Sigma)
		fmt.Fprintf(stdout, "%-6s %9s %11s %10s\n", "level", "clusters", "max-member", "max-radius")
		for l := 0; l <= st.Height; l++ {
			fmt.Fprintf(stdout, "%-6d %9d %11d %10.1f\n", l, st.ClusterCounts[l], st.MaxMembership[l], st.MaxRadius[l])
		}
		ov = hs
	} else {
		hs, err := hier.Build(g, m, hier.Config{Seed: *seed, UseParentSets: *parentSets, SpecialParentOffset: *sigma})
		if err != nil {
			return fatal(stderr, err)
		}
		if err := hs.Validate(); err != nil {
			return fatal(stderr, err)
		}
		st := hs.Stats()
		fmt.Fprintf(stdout, "HS: height %d, root %d, rho %.2f, sigma %d\n", st.Height, st.Root, st.Rho, st.Sigma)
		fmt.Fprintf(stdout, "%-6s %7s\n", "level", "leaders")
		for l, sz := range st.LevelSizes {
			fmt.Fprintf(stdout, "%-6d %7d\n", l, sz)
		}
		ov = hs
	}

	if *node >= 0 {
		p := ov.DPath(graph.NodeID(*node))
		fmt.Fprintf(stdout, "DPath(%d), length %.1f:\n", *node, overlay.Length(p, m))
		for l, sts := range p {
			fmt.Fprintf(stdout, "  level %d:", l)
			for _, s := range sts {
				fmt.Fprintf(stdout, " %v", s)
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintln(stdout, "invariants: ok")
	return 0
}

// parseGrid parses "WxH" (case-insensitive x) into two sides of at least
// one sensor whose product fits an int; any other text, including
// trailing characters, fails.
func parseGrid(spec string) (w, h int, ok bool) {
	ws, hs, found := strings.Cut(strings.ToLower(spec), "x")
	if !found {
		return 0, 0, false
	}
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	if errW != nil || errH != nil || w < 1 || h < 1 || w > math.MaxInt/h {
		return 0, 0, false
	}
	return w, h, true
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "mothier: %v\n", err)
	return 1
}

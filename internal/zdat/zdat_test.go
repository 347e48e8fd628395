package zdat

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

func rates(t testing.TB, g *graph.Graph, m *graph.Metric, seed int64) (*mobility.Workload, map[mobility.EdgeKey]float64) {
	t.Helper()
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 8, MovesPerObject: 80, Queries: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w, w.DetectionRates(g)
}

// directory builds the Z-DAT tree and its directory, with or without
// shortcut queries.
func directory(t testing.TB, g *graph.Graph, m *graph.Metric, r map[mobility.EdgeKey]float64, cfg Config, shortcuts bool) *treedir.Directory {
	t.Helper()
	tr, err := BuildTree(g, m, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := treedir.New(tr, m, treedir.Config{Shortcuts: shortcuts})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildTreeRejectsBadGraph(t *testing.T) {
	if _, err := BuildTree(graph.New(0), graph.NewMetric(graph.New(0)), nil, Config{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := graph.New(2)
	if _, err := BuildTree(g, graph.NewMetric(g), nil, Config{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// Deviation avoidance: every node's tree-path length to the sink equals its
// graph distance to the sink (the defining DAT property).
func TestZeroDeviation(t *testing.T) {
	g := graph.Grid(7, 7)
	m := graph.NewMetric(g)
	_, r := rates(t, g, m, 1)
	for _, depth := range []int{0, 1, 2} {
		tr, err := BuildTree(g, m, r, Config{ZoneDepth: depth, Sink: graph.Undefined})
		if err != nil {
			t.Fatal(err)
		}
		sink := m.Center()
		for u := 0; u < g.N(); u++ {
			treeDist := 0.0
			id := tr.Leaf(graph.NodeID(u))
			for tr.Parent(id) != -1 {
				p := tr.Parent(id)
				treeDist += m.Dist(tr.Host(id), tr.Host(p))
				id = p
			}
			if tr.Host(id) != sink {
				t.Fatalf("depth %d: root hosted at %d, sink %d", depth, tr.Host(id), sink)
			}
			if math.Abs(treeDist-m.Dist(graph.NodeID(u), sink)) > 1e-9 {
				t.Fatalf("depth %d: node %d tree dist %v, graph dist %v",
					depth, u, treeDist, m.Dist(graph.NodeID(u), sink))
			}
		}
	}
}

func TestExplicitSink(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	tr, err := BuildTree(g, m, nil, Config{Sink: 0})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Host(tr.Root()) != 0 {
		t.Fatalf("root host %d, want sink 0", tr.Host(tr.Root()))
	}
}

func TestRatePreferenceAmongShortestPathParents(t *testing.T) {
	// Node 4 in a 3x3 grid (center) with sink at 0 has two shortest-path
	// parents: 1 and 3. The hotter edge must win.
	g := graph.Grid(3, 3)
	m := graph.NewMetric(g)
	hot := map[mobility.EdgeKey]float64{mobility.MakeEdgeKey(4, 3): 9, mobility.MakeEdgeKey(4, 1): 1}
	tr, err := BuildTree(g, m, hot, Config{Sink: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := tr.Parent(tr.Leaf(4)); tr.Host(p) != 3 {
		t.Fatalf("center parent hosted at %d, want 3 (hot edge)", tr.Host(p))
	}
	hot2 := map[mobility.EdgeKey]float64{mobility.MakeEdgeKey(4, 3): 1, mobility.MakeEdgeKey(4, 1): 9}
	tr2, err := BuildTree(g, m, hot2, Config{Sink: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p := tr2.Parent(tr2.Leaf(4)); tr2.Host(p) != 1 {
		t.Fatalf("center parent hosted at %d, want 1 (hot edge)", tr2.Host(p))
	}
}

func TestZoneIDsPartition(t *testing.T) {
	g := graph.Grid(8, 8)
	zones := zoneIDs(g, 2) // 16 zones of 2x2... (8/4=2 per side)
	seen := map[int]int{}
	for _, z := range zones {
		if z < 0 || z >= 16 {
			t.Fatalf("zone %d out of range", z)
		}
		seen[z]++
	}
	if len(seen) != 16 {
		t.Fatalf("%d distinct zones, want 16", len(seen))
	}
	for z, c := range seen {
		if c != 4 {
			t.Fatalf("zone %d has %d sensors, want 4", z, c)
		}
	}
	// Depth 0 or missing positions: single zone.
	if z := zoneIDs(g, 0); z[5] != 0 {
		t.Fatal("depth 0 should be single zone")
	}
	noPos := graph.New(4)
	if z := zoneIDs(noPos, 3); z[1] != 0 {
		t.Fatal("no positions should fall back to single zone")
	}
}

func TestEndToEndBothVariants(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	w, r := rates(t, g, m, 3)
	for _, shortcuts := range []bool{false, true} {
		d := directory(t, g, m, r, Config{ZoneDepth: 2}, shortcuts)
		for o, at := range w.Initial {
			if err := d.Publish(core.ObjectID(o), at); err != nil {
				t.Fatal(err)
			}
		}
		for _, mv := range w.Moves {
			if err := d.Move(mv.Object, mv.To); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		finals := w.FinalLocations()
		for _, q := range w.Queries {
			got, _, err := d.Query(q.From, q.Object)
			if err != nil {
				t.Fatal(err)
			}
			if got != finals[q.Object] {
				t.Fatalf("shortcuts=%t: query said %d, want %d", shortcuts, got, finals[q.Object])
			}
		}
		if rr := d.Meter().MaintRatio(); rr < 1 {
			t.Fatalf("maintenance ratio %v", rr)
		}
	}
}

func TestShortcutsImproveQueries(t *testing.T) {
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	w, r := rates(t, g, m, 9)
	run := func(shortcuts bool) float64 {
		d := directory(t, g, m, r, Config{ZoneDepth: 1}, shortcuts)
		for o, at := range w.Initial {
			if err := d.Publish(core.ObjectID(o), at); err != nil {
				t.Fatal(err)
			}
		}
		for _, mv := range w.Moves {
			if err := d.Move(mv.Object, mv.To); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range w.Queries {
			if _, _, err := d.Query(q.From, q.Object); err != nil {
				t.Fatal(err)
			}
		}
		return d.Meter().QueryCost
	}
	if plain, short := run(false), run(true); short > plain+1e-9 {
		t.Fatalf("shortcut queries cost more: %v vs %v", short, plain)
	}
}

// A sink outside the network is an error, never a silent switch to the
// metric center or a panic; Undefined alone selects the center.
func TestBuildTreeRejectsBadSink(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	for _, c := range []struct {
		sink graph.NodeID
		ok   bool
	}{
		{graph.Undefined, true},
		{0, true},
		{15, true},
		{16, false},
		{99, false},
		{-2, false},
		{-5, false},
	} {
		tr, err := BuildTree(g, m, nil, Config{Sink: c.sink})
		if (err == nil) != c.ok {
			t.Fatalf("sink %d: err %v, want ok=%t", c.sink, err, c.ok)
		}
		if c.ok && c.sink != graph.Undefined && tr.Host(tr.Root()) != c.sink {
			t.Fatalf("sink %d: root hosted at %d", c.sink, tr.Host(tr.Root()))
		}
	}
}

package mobility

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestGenerateValidation(t *testing.T) {
	g := graph.Grid(3, 3)
	m := graph.NewMetric(g)
	if _, err := Generate(g, m, Config{Objects: 0}); err == nil {
		t.Fatal("zero objects accepted")
	}
	if _, err := Generate(graph.New(0), graph.NewMetric(graph.New(0)), Config{Objects: 1}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := Generate(g, m, Config{Objects: 1, MovesPerObject: 1, Model: Model(99)}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestGenerateRejectsNegativeCounts: a negative move or query count is an
// error, not a makeslice panic, on either model.
func TestGenerateRejectsNegativeCounts(t *testing.T) {
	g := graph.Grid(3, 3)
	m := graph.NewMetric(g)
	for _, cfg := range []Config{
		{Objects: 2, MovesPerObject: -2},
		{Objects: 2, MovesPerObject: -1, Model: RandomWaypoint},
		{Objects: 2, MovesPerObject: 3, Queries: -1},
	} {
		if _, err := Generate(g, m, cfg); err == nil {
			t.Errorf("Generate(%+v) accepted a negative count", cfg)
		}
	}
	if _, err := Generate(g, m, Config{Objects: 2}); err != nil {
		t.Fatalf("zero moves and queries rejected: %v", err)
	}
}

func TestRandomWalkMovesAreAdjacent(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	w, err := Generate(g, m, Config{Objects: 5, MovesPerObject: 50, Queries: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Moves) != 250 {
		t.Fatalf("%d moves", len(w.Moves))
	}
	locs := append([]graph.NodeID(nil), w.Initial...)
	for i, mv := range w.Moves {
		if !g.HasEdge(locs[mv.Object], mv.To) {
			t.Fatalf("move %d not adjacent: %d -> %d", i, locs[mv.Object], mv.To)
		}
		locs[mv.Object] = mv.To
	}
}

func TestRandomWaypointMovesAreAdjacent(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	w, err := Generate(g, m, Config{Objects: 3, MovesPerObject: 60, Model: RandomWaypoint, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	locs := append([]graph.NodeID(nil), w.Initial...)
	for i, mv := range w.Moves {
		if !g.HasEdge(locs[mv.Object], mv.To) {
			t.Fatalf("waypoint move %d not adjacent: %d -> %d", i, locs[mv.Object], mv.To)
		}
		locs[mv.Object] = mv.To
	}
}

func TestPerObjectOrderPreserved(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	w, err := Generate(g, m, Config{Objects: 4, MovesPerObject: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for o := core.ObjectID(0); o < 4; o++ {
		sub := w.MovesFor(o)
		if len(sub) != 30 {
			t.Fatalf("object %d has %d moves", o, len(sub))
		}
		cur := w.Initial[o]
		for _, mv := range sub {
			if !g.HasEdge(cur, mv.To) {
				t.Fatalf("object %d move not adjacent under interleaving", o)
			}
			cur = mv.To
		}
	}
}

func TestDeterministicSeed(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	a, _ := Generate(g, m, Config{Objects: 3, MovesPerObject: 20, Queries: 7, Seed: 9})
	b, _ := Generate(g, m, Config{Objects: 3, MovesPerObject: 20, Queries: 7, Seed: 9})
	if len(a.Moves) != len(b.Moves) {
		t.Fatal("lengths differ")
	}
	for i := range a.Moves {
		if a.Moves[i] != b.Moves[i] {
			t.Fatalf("move %d differs", i)
		}
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestFinalLocations(t *testing.T) {
	g := graph.Path(6)
	m := graph.NewMetric(g)
	w, _ := Generate(g, m, Config{Objects: 2, MovesPerObject: 15, Seed: 4})
	finals := w.FinalLocations()
	locs := append([]graph.NodeID(nil), w.Initial...)
	for _, mv := range w.Moves {
		locs[mv.Object] = mv.To
	}
	for o := range finals {
		if finals[o] != locs[o] {
			t.Fatalf("final location of %d: %d vs %d", o, finals[o], locs[o])
		}
	}
}

func TestDetectionRatesCountCrossings(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	w, _ := Generate(g, m, Config{Objects: 4, MovesPerObject: 100, Seed: 5})
	rates := w.DetectionRates(g)
	total := 0.0
	for k, r := range rates {
		if !g.HasEdge(k.U, k.V) {
			t.Fatalf("rate on non-edge %v", k)
		}
		if k.U >= k.V {
			t.Fatalf("non-canonical key %v", k)
		}
		total += r
	}
	// Every move crosses exactly one edge.
	if total != float64(len(w.Moves)) {
		t.Fatalf("total rate %v, moves %d", total, len(w.Moves))
	}
}

func TestMakeEdgeKeyCanonical(t *testing.T) {
	if MakeEdgeKey(5, 2) != (EdgeKey{U: 2, V: 5}) {
		t.Fatal("key not canonicalized")
	}
	if MakeEdgeKey(2, 5) != MakeEdgeKey(5, 2) {
		t.Fatal("keys differ by direction")
	}
}

func TestQueriesInRange(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	w, _ := Generate(g, m, Config{Objects: 6, MovesPerObject: 5, Queries: 50, Seed: 6})
	for _, q := range w.Queries {
		if int(q.From) < 0 || int(q.From) >= g.N() {
			t.Fatalf("query from %d", q.From)
		}
		if int(q.Object) < 0 || int(q.Object) >= 6 {
			t.Fatalf("query object %d", q.Object)
		}
	}
}

package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if g.Connected() {
		t.Fatal("5 isolated nodes reported connected")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	cases := []struct {
		u, v NodeID
		w    float64
	}{
		{0, 1, 1},           // duplicate
		{1, 0, 1},           // duplicate reversed
		{0, 0, 1},           // self loop
		{0, 3, 1},           // out of range
		{-1, 0, 1},          // out of range
		{1, 2, 0},           // zero weight
		{1, 2, -2},          // negative weight
		{1, 2, math.NaN()},  // NaN
		{1, 2, math.Inf(1)}, // Inf
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) accepted, want error", c.u, c.v, c.w)
		}
	}
	if g.M() != 1 {
		t.Fatalf("edge count corrupted: %d", g.M())
	}
}

func TestEdgeQueries(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2.5)
	g.MustAddEdge(1, 2, 1.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge symmetric lookup failed")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge reported absent edge")
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 1.5 {
		t.Fatalf("EdgeWeight(1,2) = %v, %v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight reported absent edge")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(1), g.Degree(3))
	}
	ids := g.NeighborIDs(1)
	if len(ids) != 2 {
		t.Fatalf("NeighborIDs(1) = %v", ids)
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := Star(10)
	count := 0
	g.Neighbors(0, func(v NodeID, w float64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d neighbors, want 3", count)
	}
}

func TestEdgesListing(t *testing.T) {
	g := Grid(3, 3)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges() returned %d, M()=%d", len(edges), g.M())
	}
	for _, e := range edges {
		if e.From >= e.To {
			t.Fatalf("edge not canonical: %+v", e)
		}
	}
	// 3x3 grid: 2*3 horizontal + 3*2 vertical = 12 edges.
	if g.M() != 12 {
		t.Fatalf("3x3 grid has %d edges, want 12", g.M())
	}
}

func TestNormalize(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 4)
	scale := g.Normalize()
	if scale != 0.5 {
		t.Fatalf("scale = %v, want 0.5", scale)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Fatalf("min edge weight after normalize = %v", w)
	}
	if w, _ := g.EdgeWeight(1, 2); w != 2 {
		t.Fatalf("other edge weight after normalize = %v", w)
	}
	// Idempotent.
	if s2 := g.Normalize(); s2 != 1 {
		t.Fatalf("second normalize scale = %v, want 1", s2)
	}
}

func TestClone(t *testing.T) {
	g := Grid(4, 4)
	c := g.Clone()
	c.MustAddEdge(0, 5, 3) // diagonal not in grid
	if g.HasEdge(0, 5) {
		t.Fatal("mutating clone affected original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone edge count %d vs %d", c.M(), g.M())
	}
	if g.Position(5) != c.Position(5) {
		t.Fatal("clone lost positions")
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Fatalf("n=%d", g.N())
	}
	if !g.Connected() {
		t.Fatal("grid not connected")
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(1) != 3 {
		t.Fatalf("border degree %d", g.Degree(1))
	}
	if g.Degree(5) != 4 {
		t.Fatalf("interior degree %d", g.Degree(5))
	}
	p := g.Position(NodeID(1*4 + 2)) // (x=2, y=1)
	if p.X != 2 || p.Y != 1 {
		t.Fatalf("position = %+v", p)
	}
}

func TestRingPathStar(t *testing.T) {
	r := Ring(8)
	if r.M() != 8 || !r.Connected() {
		t.Fatalf("ring m=%d connected=%t", r.M(), r.Connected())
	}
	for i := 0; i < 8; i++ {
		if r.Degree(NodeID(i)) != 2 {
			t.Fatalf("ring degree at %d = %d", i, r.Degree(NodeID(i)))
		}
	}
	p := Path(6)
	if p.M() != 5 || p.Degree(0) != 1 || p.Degree(3) != 2 {
		t.Fatal("path structure wrong")
	}
	s := Star(7)
	if s.Degree(0) != 6 || s.M() != 6 {
		t.Fatal("star structure wrong")
	}
}

func TestNearSquareGrid(t *testing.T) {
	for _, n := range []int{10, 16, 36, 100, 1000, 1024} {
		g := NearSquareGrid(n)
		if g.N() < n {
			t.Fatalf("NearSquareGrid(%d) has %d nodes", n, g.N())
		}
		if !g.Connected() {
			t.Fatalf("NearSquareGrid(%d) disconnected", n)
		}
	}
}

func TestRandomGeometricConnectedNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := RandomGeometric(60, 10, 2.0, rng)
	if !g.Connected() {
		t.Fatal("random geometric graph disconnected after retry loop")
	}
	minW := math.Inf(1)
	for _, e := range g.Edges() {
		if e.Weight < minW {
			minW = e.Weight
		}
	}
	if math.Abs(minW-1) > 1e-9 {
		t.Fatalf("min weight %v, want 1 after normalize", minW)
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomTree(50, rng)
	if g.M() != 49 || !g.Connected() {
		t.Fatalf("random tree m=%d connected=%t", g.M(), g.Connected())
	}
}

func TestWeightedRing(t *testing.T) {
	g := WeightedRing(10, 100)
	if w, ok := g.EdgeWeight(9, 0); !ok || w != 100 {
		t.Fatalf("long edge weight %v ok=%t", w, ok)
	}
	m := NewMetric(g)
	// Diameter should route around the cheap side: farthest pair ~ n-1.
	if d := m.Diameter(); d != 9 {
		t.Fatalf("weighted ring diameter %v, want 9", d)
	}
}

func TestIntegerWeights(t *testing.T) {
	below := New(3)
	below.MustAddEdge(0, 1, 1<<52)
	below.MustAddEdge(1, 2, 1<<52-1)
	at := New(3)
	at.MustAddEdge(0, 1, 1<<52)
	at.MustAddEdge(1, 2, 1<<52)
	half := New(2)
	half.MustAddEdge(0, 1, 2.5)
	heavy := Grid(3, 3)
	heavy.MustAddEdge(0, 8, 2)
	cycle := Path(4)
	cycle.MustAddEdge(0, 3, 1)
	cycle.Normalize() // already unit: a no-op
	scaled := New(3)
	scaled.MustAddEdge(0, 1, 4)
	scaled.MustAddEdge(1, 2, 4)
	scaled.Normalize() // every weight becomes 1
	mixed := New(3)
	mixed.MustAddEdge(0, 1, 2)
	mixed.MustAddEdge(1, 2, 3)
	mixed.Normalize() // 1 and 1.5
	for _, tc := range []struct {
		name          string
		g             *Graph
		integer, unit bool
	}{
		{"empty", New(0), true, true},
		{"grid", Grid(5, 4), true, true},
		{"ring", Ring(12), true, true},
		{"weighted ring", WeightedRing(10, 100), true, false},
		{"rgg", RandomGeometric(60, 10, 2.0, rand.New(rand.NewSource(42))), false, false},
		{"half weight", half, false, false},
		{"sum below 2^53", below, true, false},
		{"sum at 2^53", at, false, false},
		{"grid plus a weight-2 edge", heavy, true, false},
		{"clone of the weight-2 grid", heavy.Clone(), true, false},
		{"clone of a grid", Grid(4, 4).Clone(), true, true},
		{"unit cycle normalized", cycle, true, true},
		{"4s normalized", scaled, true, true},
		{"2 and 3 normalized", mixed, false, false},
	} {
		if got := tc.g.IntegerWeights(); got != tc.integer {
			t.Errorf("%s: IntegerWeights = %t, want %t", tc.name, got, tc.integer)
		}
		if got := !tc.g.nonUnit; got != tc.unit {
			t.Errorf("%s: unit weights = %t, want %t", tc.name, got, tc.unit)
		}
	}
}

// Property: in any grid, HasEdge(u,v) iff Manhattan distance 1.
func TestQuickGridAdjacency(t *testing.T) {
	g := Grid(9, 7)
	f := func(a, b uint16) bool {
		u := NodeID(int(a) % g.N())
		v := NodeID(int(b) % g.N())
		ux, uy := int(u)%9, int(u)/9
		vx, vy := int(v)%9, int(v)/9
		manhattan := abs(ux-vx) + abs(uy-vy)
		return g.HasEdge(u, v) == (manhattan == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

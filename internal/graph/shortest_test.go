package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDijkstraPathGraph(t *testing.T) {
	g := Path(5)
	s := g.Dijkstra(0)
	for v := 0; v < 5; v++ {
		if s.Dist[v] != float64(v) {
			t.Fatalf("dist to %d = %v", v, s.Dist[v])
		}
	}
	p := s.PathTo(4)
	want := []NodeID{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path %v", p)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	s := g.Dijkstra(0)
	if !math.IsInf(s.Dist[2], 1) {
		t.Fatalf("dist to isolated node = %v", s.Dist[2])
	}
	if s.PathTo(2) != nil {
		t.Fatal("PathTo unreachable returned non-nil")
	}
	if s.PathTo(99) != nil {
		t.Fatal("PathTo out of range returned non-nil")
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle where the two-hop route is cheaper than the direct edge.
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 5)
	s := g.Dijkstra(0)
	if s.Dist[2] != 2 {
		t.Fatalf("dist(0,2) = %v, want 2 via node 1", s.Dist[2])
	}
	p := s.PathTo(2)
	if len(p) != 3 || p[1] != 1 {
		t.Fatalf("path %v", p)
	}
}

func TestMetricGridDistances(t *testing.T) {
	g := Grid(6, 6)
	m := NewMetric(g)
	// Unit grid: shortest path distance = Manhattan distance.
	for trial := 0; trial < 200; trial++ {
		u := NodeID(trial % g.N())
		v := NodeID((trial * 7) % g.N())
		ux, uy := int(u)%6, int(u)/6
		vx, vy := int(v)%6, int(v)/6
		want := float64(abs(ux-vx) + abs(uy-vy))
		if got := m.Dist(u, v); got != want {
			t.Fatalf("dist(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
}

func TestMetricSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomGeometric(40, 8, 2, rng)
	m := NewMetric(g)
	f := func(a, b, c uint16) bool {
		u := NodeID(int(a) % g.N())
		v := NodeID(int(b) % g.N())
		w := NodeID(int(c) % g.N())
		duv, dvu := m.Dist(u, v), m.Dist(v, u)
		if math.Abs(duv-dvu) > 1e-9 {
			return false
		}
		// Triangle inequality.
		return m.Dist(u, w) <= duv+m.Dist(v, w)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterKnown(t *testing.T) {
	cases := []struct {
		g    *Graph
		want float64
	}{
		{Path(10), 9},
		{Grid(4, 4), 6},
		{Ring(10), 5},
		{Star(9), 2},
	}
	for i, c := range cases {
		m := NewMetric(c.g)
		if d := m.Diameter(); d != c.want {
			t.Errorf("case %d: diameter %v, want %v", i, d, c.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	m := NewMetric(g)
	if !math.IsInf(m.Diameter(), 1) {
		t.Fatal("disconnected diameter not Inf")
	}
}

func TestCenterOfPath(t *testing.T) {
	g := Path(9)
	m := NewMetric(g)
	if c := m.Center(); c != 4 {
		t.Fatalf("center of P9 = %d, want 4", c)
	}
}

func TestBall(t *testing.T) {
	g := Grid(5, 5)
	m := NewMetric(g)
	center := NodeID(12) // middle
	if got := m.BallSize(center, 1); got != 5 {
		t.Fatalf("BallSize(center,1) = %d, want 5", got)
	}
	ball := m.Ball(center, 2)
	if len(ball) != 13 { // diamond of radius 2 fits fully: 1+4+8
		t.Fatalf("Ball radius 2 has %d nodes, want 13", len(ball))
	}
	for _, v := range ball {
		if m.Dist(center, v) > 2 {
			t.Fatalf("ball member %d at distance %v", v, m.Dist(center, v))
		}
	}
}

func TestPrecomputeMatchesLazy(t *testing.T) {
	g := Grid(8, 8)
	lazy := NewMetric(g)
	pre := NewMetric(g)
	pre.Precompute(4)
	for u := 0; u < g.N(); u += 5 {
		for v := 0; v < g.N(); v += 7 {
			if lazy.Dist(NodeID(u), NodeID(v)) != pre.Dist(NodeID(u), NodeID(v)) {
				t.Fatalf("precompute mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestDoublingEstimateGridIsBounded(t *testing.T) {
	g := Grid(16, 16)
	m := NewMetric(g)
	rho := EstimateDoubling(m, 16)
	if rho <= 0 || rho > 3.5 {
		t.Fatalf("grid doubling estimate %v outside (0, 3.5]", rho)
	}
}

func TestRowSharedNotCopied(t *testing.T) {
	g := Path(4)
	m := NewMetric(g)
	r1 := m.Row(0)
	r2 := m.Row(0)
	if &r1[0] != &r2[0] {
		t.Fatal("Row should return the cached slice")
	}
}

// rescaled copies g with every edge weight multiplied by a random
// non-integer factor in [0.3, 3.3), dropping each edge with probability
// drop, so labels carry rounding and the copy may split into components.
func rescaled(g *Graph, drop float64, rng *rand.Rand) *Graph {
	out := New(g.N())
	for _, e := range g.Edges() {
		if rng.Float64() < drop {
			continue
		}
		out.MustAddEdge(e.From, e.To, e.Weight*(0.3+3*rng.Float64()))
	}
	return out
}

// TestPairSearchMatchesDijkstra pins PairSearch's contract: one shared
// search answers every (s, v) for a stride of sources, and each answer
// has the bits of g.Dijkstra(s).Dist[v] — 0 on the diagonal and +Inf
// across components included. Sharing the search across calls also
// catches a touched-list restore that leaves a stale label behind.
func TestPairSearchMatchesDijkstra(t *testing.T) {
	fams := oracleFamilies()
	rgg := RandomGeometric(200, 10, 1.2, rand.New(rand.NewSource(63)))
	fams = append(fams, oracleFamily{"rgg-rescaled", rescaled(rgg, 0.4, rand.New(rand.NewSource(64)))})
	infs := 0
	for _, fam := range fams {
		g := fam.g
		ps := NewPairSearch(g)
		for s := 0; s < g.N(); s += 7 {
			row := g.Dijkstra(NodeID(s)).Dist
			for v := range row {
				got := ps.Dist(NodeID(s), NodeID(v))
				if math.Float64bits(got) != math.Float64bits(row[v]) {
					t.Fatalf("%s: PairSearch.Dist(%d, %d) = %v, Dijkstra %v", fam.name, s, v, got, row[v])
				}
				if math.IsInf(got, 1) {
					infs++
				}
			}
		}
	}
	if infs == 0 {
		t.Fatal("no cross-component pair checked: the +Inf case went untested")
	}
}

func TestPairSearchPanicsOutOfRange(t *testing.T) {
	ps := NewPairSearch(Path(3))
	for _, pair := range [][2]NodeID{{-1, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Dist(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			ps.Dist(pair[0], pair[1])
		}()
	}
}

func BenchmarkDijkstraGrid32(b *testing.B) {
	g := Grid(32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i % g.N()))
	}
}

func BenchmarkMetricPrecompute1024(b *testing.B) {
	g := Grid(32, 32)
	for i := 0; i < b.N; i++ {
		m := NewMetric(g)
		m.Precompute(0)
	}
}

package hier

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/overlay"
)

func build(t testing.TB, g *graph.Graph, cfg Config) *Hierarchy {
	t.Helper()
	m := graph.NewMetric(g)
	hs, err := Build(g, m, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return hs
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(graph.New(0), graph.NewMetric(graph.New(0)), Config{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	if _, err := Build(g, graph.NewMetric(g), Config{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New(1)
	hs := build(t, g, Config{Seed: 1})
	if hs.Height() != 0 {
		t.Fatalf("height %d", hs.Height())
	}
	if hs.RootNode() != 0 {
		t.Fatalf("root %d", hs.RootNode())
	}
	p := hs.DPath(0)
	if len(p) != 1 || len(p[0]) != 1 || p[0][0].Host != 0 {
		t.Fatalf("path %v", p)
	}
}

func TestValidateOnGrids(t *testing.T) {
	for _, sz := range []struct{ w, h int }{{2, 5}, {4, 4}, {8, 8}, {11, 11}} {
		for seed := int64(0); seed < 3; seed++ {
			g := graph.Grid(sz.w, sz.h)
			hs := build(t, g, Config{Seed: seed, UseParentSets: true})
			if err := hs.Validate(); err != nil {
				t.Fatalf("grid %dx%d seed %d: %v", sz.w, sz.h, seed, err)
			}
		}
	}
}

func TestHeightBound(t *testing.T) {
	g := graph.Grid(16, 16)
	m := graph.NewMetric(g)
	hs, err := Build(g, m, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// h <= ceil(log D) + 1 plus slack for non-shrinking rounds.
	bound := int(math.Ceil(math.Log2(m.Diameter()))) + 2
	if hs.Height() > bound {
		t.Fatalf("height %d exceeds bound %d (D=%v)", hs.Height(), bound, m.Diameter())
	}
	if hs.Height() < 2 {
		t.Fatalf("height %d suspiciously small for a 16x16 grid", hs.Height())
	}
}

func TestLevelsNestAndShrink(t *testing.T) {
	g := graph.Grid(10, 10)
	hs := build(t, g, Config{Seed: 3})
	if got := len(hs.LevelNodes(0)); got != 100 {
		t.Fatalf("level 0 size %d", got)
	}
	if got := len(hs.LevelNodes(hs.Height())); got != 1 {
		t.Fatalf("top level size %d", got)
	}
	for l := 1; l <= hs.Height(); l++ {
		lower := map[graph.NodeID]bool{}
		for _, u := range hs.LevelNodes(l - 1) {
			lower[u] = true
		}
		for _, u := range hs.LevelNodes(l) {
			if !lower[u] {
				t.Fatalf("level %d node %d missing from level %d", l, u, l-1)
			}
		}
		if len(hs.LevelNodes(l)) > len(hs.LevelNodes(l-1)) {
			t.Fatalf("level %d grew", l)
		}
	}
}

func TestDPathStructureSimpleMode(t *testing.T) {
	g := graph.Grid(8, 8)
	hs := build(t, g, Config{Seed: 5})
	root := hs.Root()
	for u := 0; u < g.N(); u++ {
		p := hs.DPath(graph.NodeID(u))
		if len(p) != hs.Height()+1 {
			t.Fatalf("path of %d has %d levels, want %d", u, len(p), hs.Height()+1)
		}
		if len(p[0]) != 1 || p[0][0].Host != graph.NodeID(u) {
			t.Fatalf("path of %d level 0 = %v", u, p[0])
		}
		for l, stations := range p {
			if len(stations) != 1 {
				t.Fatalf("simple mode path has %d stations at level %d", len(stations), l)
			}
			if stations[0].Level != l {
				t.Fatalf("station level mismatch at %d: %v", l, stations[0])
			}
			if stations[0].Host != hs.Home(graph.NodeID(u), l) {
				t.Fatalf("station host differs from home at level %d", l)
			}
		}
		top := p[len(p)-1][0]
		if top != root {
			t.Fatalf("path of %d tops at %v, root is %v", u, top, root)
		}
	}
}

func TestDPathParentSetsContainHomeAndAreSorted(t *testing.T) {
	g := graph.Grid(8, 8)
	hs := build(t, g, Config{Seed: 5, UseParentSets: true})
	for u := 0; u < g.N(); u += 3 {
		p := hs.DPath(graph.NodeID(u))
		for l := 1; l < len(p); l++ {
			foundHome := false
			home := hs.Home(graph.NodeID(u), l)
			for i, s := range p[l] {
				if s.Host == home {
					foundHome = true
				}
				if i > 0 && p[l][i-1].Key >= s.Key {
					t.Fatalf("level %d stations not ID-sorted: %v", l, p[l])
				}
			}
			if !foundHome {
				t.Fatalf("level %d of DPath(%d) misses home %d", l, u, home)
			}
		}
	}
}

func TestDPathCached(t *testing.T) {
	g := graph.Grid(4, 4)
	hs := build(t, g, Config{Seed: 2})
	p1 := hs.DPath(3)
	p2 := hs.DPath(3)
	if &p1[0] != &p2[0] {
		t.Fatal("DPath not cached")
	}
}

// Lemma 2.1: detection paths of u and v meet at level ceil(log dist)+1 when
// parent sets are used.
func TestLemma21MeetingLevel(t *testing.T) {
	g := graph.Grid(12, 12)
	m := graph.NewMetric(g)
	hs, err := Build(g, m, Config{Seed: 11, UseParentSets: true})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 7 {
		for v := u + 1; v < g.N(); v += 13 {
			d := m.Dist(graph.NodeID(u), graph.NodeID(v))
			want := int(math.Ceil(math.Log2(d))) + 1
			if want > hs.Height() {
				want = hs.Height()
			}
			got := overlay.MeetLevel(hs.DPath(graph.NodeID(u)), hs.DPath(graph.NodeID(v)))
			if got < 0 {
				t.Fatalf("paths of %d and %d never meet", u, v)
			}
			if got > want {
				t.Fatalf("paths of %d,%d (dist %v) meet at level %d, bound %d", u, v, d, got, want)
			}
		}
	}
}

// Lemma 2.2: length(DPath_j(u)) <= 2^(j+3*rho+6).
func TestLemma22PathLengthBound(t *testing.T) {
	g := graph.Grid(12, 12)
	m := graph.NewMetric(g)
	hs, err := Build(g, m, Config{Seed: 13, UseParentSets: true})
	if err != nil {
		t.Fatal(err)
	}
	rho := math.Ceil(hs.Rho())
	for u := 0; u < g.N(); u += 11 {
		p := hs.DPath(graph.NodeID(u))
		for j := 0; j <= hs.Height(); j++ {
			bound := math.Pow(2, float64(j)+3*rho+6)
			if got := overlay.LengthUpTo(p, m, j); got > bound {
				t.Fatalf("DPath_%d(%d) length %v exceeds bound %v", j, u, got, bound)
			}
		}
	}
}

func TestSpecialParentHelper(t *testing.T) {
	g := graph.Grid(16, 16)
	hs := build(t, g, Config{Seed: 1, SpecialParentOffset: 2})
	if hs.SpecialOffset() != 2 {
		t.Fatalf("sigma %d", hs.SpecialOffset())
	}
	p := hs.DPath(0)
	sp, ok := overlay.SpecialParent(p, 1, 0, hs.SpecialOffset())
	if !ok {
		t.Fatal("special parent of level-1 station undefined in tall hierarchy")
	}
	if sp.Level != 3 {
		t.Fatalf("special parent level %d, want 3", sp.Level)
	}
	// Near the root: undefined.
	if _, ok := overlay.SpecialParent(p, hs.Height(), 0, 2); ok {
		t.Fatal("special parent above root should be undefined")
	}
	// Offset derived from rho when zero.
	hs2 := build(t, g, Config{Seed: 1})
	if hs2.SpecialOffset() < 6 {
		t.Fatalf("derived sigma %d < 6", hs2.SpecialOffset())
	}
}

func TestObservation1ParentSetConstantSize(t *testing.T) {
	g := graph.Grid(16, 16)
	hs := build(t, g, Config{Seed: 19, UseParentSets: true})
	bound := int(math.Pow(2, 3*math.Ceil(hs.Rho())))
	if bound < 1 {
		bound = 1
	}
	for l := 0; l < hs.Height(); l++ {
		for _, u := range hs.LevelNodes(l) {
			if got := len(hs.ParentSet(u, l)); got > bound {
				t.Fatalf("parent set of %d at level %d has %d members, bound %d (rho=%v)",
					u, l, got, bound, hs.Rho())
			}
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Grid(9, 9)
	a := build(t, g, Config{Seed: 21})
	b := build(t, g, Config{Seed: 21})
	if a.Height() != b.Height() || a.RootNode() != b.RootNode() {
		t.Fatal("same seed produced different hierarchies")
	}
	for l := 0; l <= a.Height(); l++ {
		la, lb := a.LevelNodes(l), b.LevelNodes(l)
		if len(la) != len(lb) {
			t.Fatalf("level %d sizes differ", l)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("level %d differs at %d", l, i)
			}
		}
	}
}

func TestHomeChainRespectsDefaultParents(t *testing.T) {
	g := graph.Grid(6, 6)
	hs := build(t, g, Config{Seed: 4})
	for u := 0; u < g.N(); u++ {
		cur := graph.NodeID(u)
		for l := 0; l < hs.Height(); l++ {
			dp, ok := hs.DefaultParent(cur, l)
			if !ok {
				t.Fatalf("no default parent for %d at level %d", cur, l)
			}
			if got := hs.Home(graph.NodeID(u), l+1); got != dp {
				t.Fatalf("Home(%d,%d) = %d, want %d", u, l+1, got, dp)
			}
			cur = dp
		}
	}
}

func TestMaxLevelConsistent(t *testing.T) {
	g := graph.Grid(7, 7)
	hs := build(t, g, Config{Seed: 6})
	for l := 0; l <= hs.Height(); l++ {
		for _, u := range hs.LevelNodes(l) {
			if hs.MaxLevel(u) < l {
				t.Fatalf("node %d in level %d but MaxLevel=%d", u, l, hs.MaxLevel(u))
			}
		}
	}
	if hs.MaxLevel(graph.NodeID(hs.RootNode())) != hs.Height() {
		t.Fatal("root MaxLevel mismatch")
	}
	if hs.MaxLevel(graph.NodeID(-1)) != -1 {
		t.Fatal("out-of-range MaxLevel should be -1")
	}
}

// Property: on random geometric graphs the hierarchy always validates.
func TestQuickHierarchyValid(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		g := graph.Grid(5+int(seed%5), 5+int((seed/5)%5))
		m := graph.NewMetric(g)
		hs, err := Build(g, m, Config{Seed: seed, UseParentSets: seed%2 == 0})
		if err != nil {
			return false
		}
		return hs.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	g := graph.Grid(8, 8)
	hs := build(t, g, Config{Seed: 1})
	st := hs.Stats()
	if st.Height != hs.Height() || len(st.LevelSizes) != hs.Height()+1 {
		t.Fatalf("stats %+v", st)
	}
	if st.LevelSizes[0] != 64 || st.LevelSizes[st.Height] != 1 {
		t.Fatalf("stats sizes %v", st.LevelSizes)
	}
}

func BenchmarkBuildGrid32(b *testing.B) {
	g := graph.Grid(32, 32)
	m := graph.NewMetric(g)
	m.Precompute(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, m, Config{Seed: int64(i), UseParentSets: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPathGrid32(b *testing.B) {
	g := graph.Grid(32, 32)
	m := graph.NewMetric(g)
	hs, err := Build(g, m, Config{Seed: 1, UseParentSets: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.DPath(graph.NodeID(i % g.N()))
	}
}

// TestRhoLazyWithExplicitOffset pins the Build fix: with an explicit
// SpecialParentOffset, Build no longer pays for the O(n²) doubling
// estimate, but Rho() still computes it on demand, caches it, and feeds
// Stats the same value.
func TestRhoLazyWithExplicitOffset(t *testing.T) {
	g := graph.Grid(6, 6)
	hs := build(t, g, Config{Seed: 1, SpecialParentOffset: 2})
	if hs.SpecialOffset() != 2 {
		t.Fatalf("sigma = %d, want 2", hs.SpecialOffset())
	}
	r1 := hs.Rho()
	if r1 <= 0 || math.IsInf(r1, 1) {
		t.Fatalf("Rho() = %v, want finite positive on a grid", r1)
	}
	if r2 := hs.Rho(); r2 != r1 {
		t.Fatalf("Rho() not cached: %v then %v", r1, r2)
	}
	if s := hs.Stats(); s.Rho != r1 {
		t.Fatalf("Stats().Rho = %v, want %v", s.Rho, r1)
	}
	// The derived-sigma default still works and uses the same estimate.
	auto := build(t, g, Config{Seed: 1})
	want := 3*int(math.Ceil(auto.Rho())) + 6
	if auto.SpecialOffset() != want {
		t.Fatalf("derived sigma = %d, want %d", auto.SpecialOffset(), want)
	}
}

// TestBuildRejectsTwoNontrivialComponents extends the disconnected error
// path beyond the isolated-vertex case.
func TestBuildRejectsTwoNontrivialComponents(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	if _, err := Build(g, graph.NewMetric(g), Config{Seed: 1, SpecialParentOffset: 2}); err == nil {
		t.Fatal("two-component graph accepted")
	}
}

// TestParentsMatchPerNodeSearch holds Build's parents to the per-node
// reference: for every level and live node, DefaultParent and ParentSet
// equal what assignParentsInto finds searching that node's own ball. The
// integer-weight substrates take the one-search-per-upper-member path, in
// Luby and incremental mode, on the exact metric and on a small-sketch
// oracle (so balls come both from sketches and from bounded searches).
// The random geometric graph's Euclidean weights keep it on the per-node
// path.
func TestParentsMatchPerNodeSearch(t *testing.T) {
	weightedRing := graph.New(40)
	for i := 0; i < 40; i++ {
		weightedRing.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%40), float64(1+i*7%3))
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		excluded []graph.NodeID
		perUpper bool
	}{
		{"grid", graph.Grid(13, 11), []graph.NodeID{0, 17, 70}, true},
		{"ring", graph.Ring(50), []graph.NodeID{3, 4}, true},
		{"weighted ring", weightedRing, []graph.NodeID{9}, true},
		{"rgg", graph.RandomGeometric(120, 9, 1.6, rand.New(rand.NewSource(5))), []graph.NodeID{1, 60}, false},
	} {
		if got := tc.g.IntegerWeights(); got != tc.perUpper {
			t.Fatalf("%s: IntegerWeights = %t, want %t", tc.name, got, tc.perUpper)
		}
		oracles := []graph.DistanceOracle{
			graph.NewMetric(tc.g),
			graph.NewOracle(tc.g, graph.OracleConfig{Landmarks: 4, BallK: 9, Seed: 3}),
		}
		for _, m := range oracles {
			for _, incremental := range []bool{false, true} {
				var excluded []graph.NodeID
				if incremental {
					excluded = tc.excluded
				}
				cfg := Config{Seed: 2, SpecialParentOffset: 2, Incremental: incremental}
				hs, err := BuildExcluding(tc.g, m, cfg, excluded)
				if err != nil {
					t.Fatalf("%s %T incremental=%t: %v", tc.name, m, incremental, err)
				}
				for l := 0; l < hs.Height(); l++ {
					upper := make([]bool, tc.g.N())
					for _, p := range hs.LevelNodes(l + 1) {
						upper[p] = true
					}
					dp := map[graph.NodeID]graph.NodeID{}
					ps := map[graph.NodeID][]graph.NodeID{}
					for _, u := range hs.LevelNodes(l) {
						got, ok := hs.DefaultParent(u, l)
						if hs.IsExcluded(u) {
							if ok {
								t.Fatalf("%s %T: excluded node %d has a level-%d parent", tc.name, m, u, l+1)
							}
							continue
						}
						if err := hs.assignParentsInto(u, l, upper, dp, ps); err != nil {
							t.Fatal(err)
						}
						if !ok || got != dp[u] || !slices.Equal(hs.ParentSet(u, l), ps[u]) {
							t.Fatalf("%s %T incremental=%t: node %d level %d: parents (%d, %v), per-node search (%d, %v)",
								tc.name, m, incremental, u, l, got, hs.ParentSet(u, l), dp[u], ps[u])
						}
					}
				}
			}
		}
	}
}

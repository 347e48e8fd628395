package stun

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

func workloadRates(t testing.TB, g *graph.Graph, m *graph.Metric, seed int64) (*mobility.Workload, map[mobility.EdgeKey]float64) {
	t.Helper()
	return workloadRatesCfg(t, g, m, mobility.Config{Objects: 10, MovesPerObject: 100, Queries: 50, Seed: seed})
}

func workloadRatesCfg(t testing.TB, g *graph.Graph, m *graph.Metric, cfg mobility.Config) (*mobility.Workload, map[mobility.EdgeKey]float64) {
	t.Helper()
	w, err := mobility.Generate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, w.DetectionRates(g)
}

func TestBuildTreeValid(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	_, rates := workloadRates(t, g, m, 1)
	tr, err := BuildTree(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	// All sensors must be leaves; the tree has internal DAB nodes too.
	for u := 0; u < g.N(); u++ {
		if tr.Leaf(graph.NodeID(u)) < 0 {
			t.Fatalf("sensor %d has no leaf", u)
		}
	}
	if tr.Len() <= g.N() {
		t.Fatalf("no internal nodes: %d tree nodes for %d sensors", tr.Len(), g.N())
	}
	// Leaves are childless in DAB (sensors never host other sensors'
	// subtrees directly; only logical internal nodes do).
	for u := 0; u < g.N(); u++ {
		if tr.Parent(tr.Leaf(graph.NodeID(u))) == -1 && g.N() > 1 {
			t.Fatalf("leaf of %d is the root", u)
		}
	}
}

func TestBuildTreeRejectsBadGraph(t *testing.T) {
	if _, err := BuildTree(graph.New(0), graph.NewMetric(graph.New(0)), nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := graph.New(2)
	if _, err := BuildTree(g, graph.NewMetric(g), nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestEmptyRatesStillBuilds(t *testing.T) {
	// Traffic-conscious with zero knowledge: a single final drain merge.
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	tr, err := BuildTree(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < g.N() {
		t.Fatal("tree too small")
	}
}

func TestHighRateNeighborsMergeLow(t *testing.T) {
	// Two sensors joined by the hottest edge should meet deeper in the
	// tree (farther from the root) than two joined only at the top.
	g := graph.Path(8)
	m := graph.NewMetric(g)
	rates := map[mobility.EdgeKey]float64{
		mobility.MakeEdgeKey(0, 1): 100, // hottest pair
		mobility.MakeEdgeKey(2, 3): 1,
	}
	tr, err := BuildTree(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	lca := func(a, b graph.NodeID) int {
		depth := map[int]bool{}
		for id := tr.Leaf(a); id != -1; id = tr.Parent(id) {
			depth[id] = true
		}
		for id := tr.Leaf(b); id != -1; id = tr.Parent(id) {
			if depth[id] {
				return id
			}
		}
		return -1
	}
	hot := tr.Depth(lca(0, 1))
	cold := tr.Depth(lca(0, 7))
	if hot <= cold {
		t.Fatalf("hot pair LCA depth %d not below cold pair LCA depth %d", hot, cold)
	}
}

func TestDirectoryEndToEnd(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	w, rates := workloadRates(t, g, m, 5)
	tr, err := BuildTree(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	d, err := treedir.New(tr, m, treedir.Config{SinkQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	for o, at := range w.Initial {
		if err := d.Publish(core.ObjectID(o), at); err != nil {
			t.Fatal(err)
		}
	}
	for i, mv := range w.Moves {
		if err := d.Move(mv.Object, mv.To); err != nil {
			t.Fatalf("move %d: %v", i, err)
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
			t.Fatalf("query said %d, want %d", got, finals[q.Object])
		}
	}
	mtr := d.Meter()
	if mtr.MaintRatio() < 1 || mtr.QueryRatio() < 1 {
		t.Fatalf("ratios below 1: %+v", mtr)
	}
}

func TestMedoid(t *testing.T) {
	g := graph.Path(5)
	m := graph.NewMetric(g)
	if got := medoid(m, []graph.NodeID{0, 2, 4}); got != 2 {
		t.Fatalf("medoid %d, want 2", got)
	}
	if got := medoid(m, []graph.NodeID{3}); got != 3 {
		t.Fatalf("singleton medoid %d", got)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Fatal("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Fatal("separate sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Fatal("transitive union failed")
	}
	uf.union(0, 4) // idempotent
	if uf.find(2) != 2 {
		t.Fatal("untouched element moved")
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	_, rates := workloadRates(t, g, m, 7)
	t1, err := BuildTree(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := BuildTree(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Len() != t2.Len() {
		t.Fatalf("tree sizes differ: %d vs %d", t1.Len(), t2.Len())
	}
	for id := 0; id < t1.Len(); id++ {
		if t1.Parent(id) != t2.Parent(id) || t1.Host(id) != t2.Host(id) {
			t.Fatalf("tree node %d differs", id)
		}
	}

}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
)

// buildDir constructs a directory over a grid HS for tests.
func buildDir(t testing.TB, w, h int, hcfg hier.Config, dcfg Config) (*Directory, *graph.Graph) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hcfg)
	if err != nil {
		t.Fatalf("hier.Build: %v", err)
	}
	return New(hs, dcfg), g
}

func TestPublishAndLocation(t *testing.T) {
	d, _ := buildDir(t, 6, 6, hier.Config{Seed: 1}, Config{})
	if err := d.Publish(1, 7); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if v, ok := d.Location(1); !ok || v != 7 {
		t.Fatalf("Location = %d, %t", v, ok)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mtr := d.Meter()
	if mtr.PublishOps != 1 || mtr.PublishCost <= 0 {
		t.Fatalf("meter %+v", mtr)
	}
}

func TestPublishDuplicateFails(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(1, 5); err == nil {
		t.Fatal("duplicate publish accepted")
	}
}

func TestMoveUnpublishedFails(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	if err := d.Move(9, 3); err == nil {
		t.Fatal("move of unpublished object accepted")
	}
}

func TestQueryUnpublishedFails(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	if _, _, err := d.Query(0, 9); err == nil {
		t.Fatal("query of unpublished object accepted")
	}
}

func TestMoveNoopSameNode(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	if err := d.Publish(1, 3); err != nil {
		t.Fatal(err)
	}
	before := d.Meter()
	if err := d.Move(1, 3); err != nil {
		t.Fatal(err)
	}
	after := d.Meter()
	if after.MaintOps != before.MaintOps || after.MaintCost != before.MaintCost {
		t.Fatal("no-op move changed the meter")
	}
}

func TestMoveUpdatesLocationAndInvariants(t *testing.T) {
	d, g := buildDir(t, 8, 8, hier.Config{Seed: 2, UseParentSets: true, SpecialParentOffset: 2}, Config{})
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cur := graph.NodeID(0)
	for i := 0; i < 200; i++ {
		nbrs := g.NeighborIDs(cur)
		next := nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(1, next); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		cur = next
		if v, _ := d.Location(1); v != cur {
			t.Fatalf("location %d, want %d", v, cur)
		}
		if i%20 == 0 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("after move %d: %v", i, err)
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryFindsProxyFromEveryNode(t *testing.T) {
	for _, ps := range []bool{false, true} {
		d, g := buildDir(t, 7, 7, hier.Config{Seed: 4, UseParentSets: ps, SpecialParentOffset: 2}, Config{})
		if err := d.Publish(5, 24); err != nil {
			t.Fatal(err)
		}
		// Fragment the trail with a few moves.
		for _, to := range []graph.NodeID{25, 26, 33, 32, 31} {
			if err := d.Move(5, to); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < g.N(); u++ {
			got, cost, err := d.Query(graph.NodeID(u), 5)
			if err != nil {
				t.Fatalf("parentsets=%t query from %d: %v", ps, u, err)
			}
			if got != 31 {
				t.Fatalf("parentsets=%t query from %d returned %d", ps, u, got)
			}
			m := d.Overlay().Metric()
			if cost+1e-9 < m.Dist(graph.NodeID(u), 31) {
				t.Fatalf("query cost %v below optimal %v", cost, m.Dist(graph.NodeID(u), 31))
			}
		}
	}
}

func TestManyObjectsIndependent(t *testing.T) {
	d, g := buildDir(t, 8, 8, hier.Config{Seed: 9, UseParentSets: true, SpecialParentOffset: 2}, Config{})
	rng := rand.New(rand.NewSource(11))
	const m = 20
	locs := make([]graph.NodeID, m)
	for o := 0; o < m; o++ {
		locs[o] = graph.NodeID(rng.Intn(g.N()))
		if err := d.Publish(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		o := rng.Intn(m)
		nbrs := g.NeighborIDs(locs[o])
		locs[o] = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(ObjectID(o), locs[o]); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for o := 0; o < m; o++ {
		from := graph.NodeID(rng.Intn(g.N()))
		got, _, err := d.Query(from, ObjectID(o))
		if err != nil {
			t.Fatalf("query %d: %v", o, err)
		}
		if got != locs[o] {
			t.Fatalf("object %d at %d, query said %d", o, locs[o], got)
		}
	}
}

func TestMaintenanceRatioAtLeastOne(t *testing.T) {
	d, g := buildDir(t, 8, 8, hier.Config{Seed: 5}, Config{})
	rng := rand.New(rand.NewSource(6))
	cur := graph.NodeID(0)
	if err := d.Publish(1, cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(1, cur); err != nil {
			t.Fatal(err)
		}
	}
	mtr := d.Meter()
	if mtr.MaintOps != 100 {
		t.Fatalf("ops %d", mtr.MaintOps)
	}
	if r := mtr.MaintRatio(); r < 1 {
		t.Fatalf("maintenance ratio %v < 1", r)
	}
	if mtr.MaintOptimal != 100 { // unit grid, adjacent moves
		t.Fatalf("optimal %v", mtr.MaintOptimal)
	}
}

func TestQueryRatioBoundedEmpirically(t *testing.T) {
	// The paper's Theorem 4.11 gives an O(1) query cost ratio; check the
	// measured ratio stays below a generous constant on a mid-size grid.
	d, g := buildDir(t, 11, 11, hier.Config{Seed: 7, UseParentSets: true, SpecialParentOffset: 2}, Config{})
	rng := rand.New(rand.NewSource(8))
	const m = 10
	locs := make([]graph.NodeID, m)
	for o := 0; o < m; o++ {
		locs[o] = graph.NodeID(rng.Intn(g.N()))
		if err := d.Publish(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		o := rng.Intn(m)
		nbrs := g.NeighborIDs(locs[o])
		locs[o] = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		o := rng.Intn(m)
		from := graph.NodeID(rng.Intn(g.N()))
		if from == locs[o] {
			continue
		}
		if _, _, err := d.Query(from, ObjectID(o)); err != nil {
			t.Fatal(err)
		}
	}
	if r := d.Meter().QueryRatio(); r < 1 || r > 60 {
		t.Fatalf("query ratio %v outside [1, 60]", r)
	}
}

func TestSpecialParentCostSeparateByDefault(t *testing.T) {
	d, g := buildDir(t, 8, 8, hier.Config{Seed: 5, SpecialParentOffset: 1}, Config{})
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	cur := graph.NodeID(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(1, cur); err != nil {
			t.Fatal(err)
		}
	}
	mtr := d.Meter()
	if mtr.SpecialCost <= 0 {
		t.Fatal("no special-parent cost recorded with sigma=1")
	}

	// With folding enabled the maintenance cost includes the SDL traffic.
	d2, _ := buildDir(t, 8, 8, hier.Config{Seed: 5, SpecialParentOffset: 1}, Config{CountSpecialParentCost: true})
	if err := d2.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	cur = 0
	rng = rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := d2.Move(1, cur); err != nil {
			t.Fatal(err)
		}
	}
	if d2.Meter().MaintCost <= mtr.MaintCost {
		t.Fatalf("folding SDL cost did not increase maintenance cost: %v vs %v",
			d2.Meter().MaintCost, mtr.MaintCost)
	}
}

func TestLoadByNodeCountsEntries(t *testing.T) {
	d, g := buildDir(t, 6, 6, hier.Config{Seed: 3, SpecialParentOffset: 2}, Config{})
	for o := 0; o < 12; o++ {
		if err := d.Publish(ObjectID(o), graph.NodeID(o)); err != nil {
			t.Fatal(err)
		}
	}
	load := d.LoadByNode(g.N())
	total := 0
	for _, c := range load {
		total += c
	}
	dl, sdl := d.EntryCount()
	if total != dl+sdl {
		t.Fatalf("load total %d, entries %d+%d", total, dl, sdl)
	}
	if total == 0 {
		t.Fatal("no load recorded")
	}
}

func TestObjectsSorted(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	for _, o := range []ObjectID{5, 1, 3} {
		if err := d.Publish(o, 0); err != nil {
			t.Fatal(err)
		}
	}
	objs := d.Objects()
	if len(objs) != 3 || objs[0] != 1 || objs[1] != 3 || objs[2] != 5 {
		t.Fatalf("objects %v", objs)
	}
}

func TestResetMeter(t *testing.T) {
	d, _ := buildDir(t, 4, 4, hier.Config{Seed: 1}, Config{})
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	d.ResetMeter()
	if m := d.Meter(); m.PublishOps != 0 || m.PublishCost != 0 {
		t.Fatalf("meter not reset: %+v", m)
	}
}

func TestMeterAdd(t *testing.T) {
	a := CostMeter{MaintCost: 2, MaintOptimal: 1, QueryCost: 4, QueryOptimal: 2, MaintOps: 1, QueryOps: 1}
	b := CostMeter{MaintCost: 4, MaintOptimal: 1, PublishCost: 3, PublishOps: 2, SpecialCost: 1, LBRouteCost: 0.5}
	a.Add(b)
	if a.MaintCost != 6 || a.MaintOptimal != 2 || a.PublishOps != 2 || a.SpecialCost != 1 || a.LBRouteCost != 0.5 {
		t.Fatalf("add result %+v", a)
	}
	if a.MaintRatio() != 3 {
		t.Fatalf("maint ratio %v", a.MaintRatio())
	}
	if a.QueryRatio() != 2 {
		t.Fatalf("query ratio %v", a.QueryRatio())
	}
	var zero CostMeter
	if zero.MaintRatio() != 0 || zero.QueryRatio() != 0 {
		t.Fatal("zero meter ratios should be 0")
	}
}

func TestCountReply(t *testing.T) {
	d, _ := buildDir(t, 6, 6, hier.Config{Seed: 1}, Config{CountReply: true})
	if err := d.Publish(1, 35); err != nil {
		t.Fatal(err)
	}
	_, cost, err := d.Query(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Overlay().Metric()
	if cost < 2*m.Dist(0, 35) {
		t.Fatalf("reply-counting query cost %v below 2*dist %v", cost, 2*m.Dist(0, 35))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() CostMeter {
		d, g := buildDir(t, 8, 8, hier.Config{Seed: 42, UseParentSets: true, SpecialParentOffset: 2}, Config{})
		rng := rand.New(rand.NewSource(9))
		cur := graph.NodeID(10)
		if err := d.Publish(1, cur); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			nbrs := g.NeighborIDs(cur)
			cur = nbrs[rng.Intn(len(nbrs))]
			if err := d.Move(1, cur); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Query(graph.NodeID(i%g.N()), 1); err != nil {
				t.Fatal(err)
			}
		}
		return d.Meter()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic meters:\n%+v\n%+v", a, b)
	}
}

func BenchmarkMoveGrid16(b *testing.B) {
	g := graph.Grid(16, 16)
	m := graph.NewMetric(g)
	m.Precompute(0)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, UseParentSets: true, SpecialParentOffset: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := New(hs, Config{})
	if err := d.Publish(1, 0); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cur := graph.NodeID(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(1, cur); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryGrid16(b *testing.B) {
	g := graph.Grid(16, 16)
	m := graph.NewMetric(g)
	m.Precompute(0)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, UseParentSets: true, SpecialParentOffset: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := New(hs, Config{})
	if err := d.Publish(1, 100); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Query(graph.NodeID(i%g.N()), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// unitPlacement spreads entries onto the station host at a unit routing
// surcharge: enough to exercise the §5 surcharge path without lb.
type unitPlacement struct{}

func (unitPlacement) Place(st overlay.Station, _ ObjectID) graph.NodeID { return st.Host }
func (unitPlacement) RouteCost(overlay.Station, ObjectID) float64       { return 1 }

// Once a station's detection list reaches lbThreshold it distributes its
// entries: every access pays the routing surcharge into LBRouteCost and,
// with CountLBRouteCost, into the operation's cost.
func TestLoadBalanceSurchargeCounted(t *testing.T) {
	d, g := buildDir(t, 5, 5, hier.Config{Seed: 1}, Config{Placement: unitPlacement{}, CountLBRouteCost: true})
	for o := 0; o < 2*lbThreshold; o++ {
		if err := d.Publish(ObjectID(o), graph.NodeID(o)); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Meter()
	if m.LBRouteCost == 0 {
		t.Fatal("no routing surcharge once the root's list was flooded")
	}
	_, cost, err := d.Query(graph.NodeID(g.N()-1), 0)
	if err != nil {
		t.Fatal(err)
	}
	free, _ := buildDir(t, 5, 5, hier.Config{Seed: 1}, Config{})
	for o := 0; o < 2*lbThreshold; o++ {
		if err := free.Publish(ObjectID(o), graph.NodeID(o)); err != nil {
			t.Fatal(err)
		}
	}
	_, base, _ := free.Query(graph.NodeID(g.N()-1), 0)
	if cost <= base || d.Meter().LBRouteCost <= m.LBRouteCost {
		t.Fatalf("query cost %v vs %v without placement: surcharge not counted", cost, base)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

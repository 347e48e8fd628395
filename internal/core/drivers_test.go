package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// driver is the operation surface every driver of core's station handler
// shares, with each move reporting its own cost.
type driver interface {
	Publish(o core.ObjectID, at graph.NodeID) error
	Move(o core.ObjectID, to graph.NodeID) (float64, error)
	Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error)
	CheckInvariants() error
}

type coreDriver struct {
	*core.Directory
	shortcuts *int // queries resolved through an SDL entry
}

func (d coreDriver) Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	proxy, tr, err := d.QueryTraced(from, o)
	if tr.ViaSDL {
		*d.shortcuts++
	}
	return proxy, tr.Cost, err
}

func (d coreDriver) Move(o core.ObjectID, to graph.NodeID) (float64, error) {
	before := d.Meter().MaintCost
	err := d.Directory.Move(o, to)
	return d.Meter().MaintCost - before, err
}

// simDriver issues every operation after the previous one has finished.
type simDriver struct {
	eng *sim.Engine
	*sim.MOTSim
}

func (d simDriver) Move(o core.ObjectID, to graph.NodeID) (float64, error) {
	before := d.Meter().MaintCost
	if err := d.IssueMove(o, to, d.eng.Now()); err != nil {
		return 0, err
	}
	err := d.eng.Run()
	return d.Meter().MaintCost - before, err
}

func (d simDriver) Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	if err := d.IssueQuery(from, o, d.eng.Now()); err != nil {
		return graph.Undefined, 0, err
	}
	if err := d.eng.Run(); err != nil {
		return graph.Undefined, 0, err
	}
	res := d.Results()
	last := res[len(res)-1]
	return last.Found, last.Cost, nil
}

type runtimeDriver struct{ *runtime.Tracker }

func (d runtimeDriver) Move(o core.ObjectID, to graph.NodeID) (float64, error) {
	before := d.Cost()
	err := d.Tracker.Move(o, to)
	return d.Cost() - before, err
}

type driverOp struct {
	move bool
	obj  core.ObjectID
	node graph.NodeID
}

// driverWorkload is 6 objects × 40 moves to random sensors, each move
// followed by a query for a random object from a random sensor.
func driverWorkload(n int) (initial []graph.NodeID, ops []driverOp) {
	rng := rand.New(rand.NewSource(14))
	const objects, moves = 6, 40
	for o := 0; o < objects; o++ {
		initial = append(initial, graph.NodeID(rng.Intn(n)))
	}
	for i := 0; i < objects*moves; i++ {
		ops = append(ops,
			driverOp{move: true, obj: core.ObjectID(i % objects), node: graph.NodeID(rng.Intn(n))},
			driverOp{obj: core.ObjectID(rng.Intn(objects)), node: graph.NodeID(rng.Intn(n))})
	}
	return initial, ops
}

// outcome is what one driver answered: per-operation costs and query
// proxies, in workload order.
type outcome struct {
	costs   []float64
	proxies []graph.NodeID
}

func replay(t *testing.T, name string, d driver, initial []graph.NodeID, ops []driverOp) outcome {
	t.Helper()
	for o, at := range initial {
		if err := d.Publish(core.ObjectID(o), at); err != nil {
			t.Fatalf("%s: publish %d: %v", name, o, err)
		}
	}
	var out outcome
	for i, op := range ops {
		if op.move {
			cost, err := d.Move(op.obj, op.node)
			if err != nil {
				t.Fatalf("%s: op %d: move: %v", name, i, err)
			}
			out.costs = append(out.costs, cost)
			continue
		}
		proxy, cost, err := d.Query(op.node, op.obj)
		if err != nil {
			t.Fatalf("%s: op %d: query: %v", name, i, err)
		}
		out.costs = append(out.costs, cost)
		out.proxies = append(out.proxies, proxy)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func sameOutcome(t *testing.T, name string, got, want outcome) {
	t.Helper()
	for i := range want.proxies {
		if got.proxies[i] != want.proxies[i] {
			t.Fatalf("%s: query %d answered %d, core %d", name, i, got.proxies[i], want.proxies[i])
		}
	}
	for i := range want.costs {
		if got.costs[i] != want.costs[i] {
			t.Fatalf("%s: op %d cost %v, core %v", name, i, got.costs[i], want.costs[i])
		}
	}
}

// TestDriversAgree replays one seeded workload through every driver of
// core's station handler — the sequential directory, the discrete-event
// simulator with one operation in flight at a time, and the goroutine
// runtime with blocking calls — on a 12×12 grid under the exact metric.
// They run one Algorithm 1, so every query must answer the same proxy at
// the same cost, every move must cost the same, and the stored directories
// must agree. Both overlays have σ=2, so SDL entries are registered and
// cleaned up; the parent-set overlay (which the simulator rejects) adds
// probe-all and SDL shortcuts.
func TestDriversAgree(t *testing.T) {
	g := graph.Grid(12, 12)
	m := graph.NewMetric(g)
	initial, ops := driverWorkload(g.N())
	for _, parentSets := range []bool{false, true} {
		hs, err := hier.Build(g, m, hier.Config{Seed: 3, SpecialParentOffset: 2, UseParentSets: parentSets})
		if err != nil {
			t.Fatal(err)
		}
		dir := core.New(hs, core.Config{})
		shortcuts := 0
		want := replay(t, "core", coreDriver{dir, &shortcuts}, initial, ops)
		if _, sdl := dir.EntryCount(); sdl == 0 {
			t.Fatalf("parent sets %v: no SDL entry stored; the workload must exercise them", parentSets)
		}
		// On a single-parent tree the home chain holds the object wherever
		// an SDL would point, so only parent sets take shortcuts.
		if parentSets && shortcuts == 0 {
			t.Fatal("no query took an SDL shortcut on the parent-set overlay")
		}

		tr := runtime.New(g, hs)
		sameOutcome(t, "runtime", replay(t, "runtime", runtimeDriver{tr}, initial, ops), want)
		if got, wantLoad := tr.LoadByNode(), dir.LoadByNode(g.N()); !reflect.DeepEqual(got, wantLoad) {
			t.Fatalf("parent sets %v: runtime load %v, core %v", parentSets, got, wantLoad)
		}
		tr.Stop()

		if parentSets {
			continue
		}
		eng := sim.NewEngine(0)
		ms, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: true})
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "sim", replay(t, "sim", simDriver{eng, ms}, initial, ops), want)
		if ms.Meter() != dir.Meter() {
			t.Fatalf("sim meter %+v\ncore meter %+v", ms.Meter(), dir.Meter())
		}
	}
}

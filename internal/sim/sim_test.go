package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
	"repro/internal/stun"
	"repro/internal/treedir"
	"repro/internal/zdat"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(0)
	var got []int
	e.At(5, func() { got = append(got, 2) })
	e.At(1, func() { got = append(got, 0) })
	e.At(1, func() { got = append(got, 1) }) // FIFO at equal times
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now %v", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(0)
	sum := 0.0
	e.At(1, func() {
		e.After(2, func() { sum = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("nested event at %v, want 3", sum)
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine(10)
	var loop func()
	loop = func() { e.After(1, loop) }
	e.At(0, loop)
	if err := e.Run(); err == nil {
		t.Fatal("livelock not detected")
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine(0)
	ran := false
	e.At(5, func() {
		e.At(1, func() { ran = true }) // in the past: clamped to now
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("clamped event dropped")
	}
}

func motSim(t testing.TB, w, h int, cfg Config) (*MOTSim, *Engine, *graph.Graph) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0)
	s, err := NewMOT(hs, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng, g
}

func TestMOTRejectsParentSetOverlay(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, UseParentSets: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMOT(hs, NewEngine(0), Config{}); err == nil {
		t.Fatal("parent-set overlay accepted by concurrent simulator")
	}
}

func TestMOTSingleMoveAndQuery(t *testing.T) {
	s, eng, _ := motSim(t, 6, 6, Config{})
	if err := s.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(1, 0); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	if err := s.IssueMove(9, 3, 0); err == nil {
		t.Fatal("move of unpublished accepted")
	}
	if err := s.IssueQuery(0, 9, 0); err == nil {
		t.Fatal("query of unpublished accepted")
	}
	if err := s.IssueMove(1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.IssueQuery(35, 1, 1000); err != nil { // after the move settles
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Location(1); v != 1 {
		t.Fatalf("location %d", v)
	}
	res := s.Results()
	if len(res) != 1 || res[0].Found != 1 {
		t.Fatalf("results %+v", res)
	}
	if res[0].Cost < res[0].Optimal {
		t.Fatalf("query cost %v below optimal %v", res[0].Cost, res[0].Optimal)
	}
}

func TestMOTConcurrentBurstsSettleConsistently(t *testing.T) {
	for _, periodSync := range []bool{true, false} {
		s, eng, g := motSim(t, 8, 8, Config{PeriodSync: periodSync})
		m := graph.NewMetric(g)
		w, err := mobility.Generate(g, m, mobility.Config{Objects: 6, MovesPerObject: 40, Queries: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if errs := s.Errors(); len(errs) > 0 {
			t.Fatalf("periodSync=%t protocol errors: %v", periodSync, errs)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("periodSync=%t: %v", periodSync, err)
		}
		finals := w.FinalLocations()
		for o, want := range finals {
			if got, _ := s.Location(core.ObjectID(o)); got != want {
				t.Fatalf("object %d at %d, want %d", o, got, want)
			}
		}
		if got := len(s.Results()); got != len(w.Queries) {
			t.Fatalf("periodSync=%t: %d of %d queries completed", periodSync, got, len(w.Queries))
		}
		mtr := s.Meter()
		if mtr.MaintOps == 0 || mtr.MaintRatio() < 1 {
			t.Fatalf("maintenance meter %+v", mtr)
		}
	}
}

func TestMOTQueryChasesMovingObject(t *testing.T) {
	s, eng, _ := motSim(t, 8, 8, Config{})
	if err := s.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	// Rapid-fire moves along the top row while a distant query launches.
	for i := 1; i <= 7; i++ {
		if err := s.IssueMove(1, graph.NodeID(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.IssueQuery(63, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := s.Results()
	if len(res) != 1 {
		t.Fatalf("query did not complete: %+v, errors %v", res, s.Errors())
	}
	if res[0].Found != 7 {
		t.Fatalf("query found %d, want final proxy 7", res[0].Found)
	}
}

func TestMOTDeterministic(t *testing.T) {
	run := func() core.CostMeter {
		s, eng, g := motSim(t, 7, 7, Config{})
		m := graph.NewMetric(g)
		w, err := mobility.Generate(g, m, mobility.Config{Objects: 4, MovesPerObject: 25, Queries: 30, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 11}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Meter()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

// testTree builds a baseline tree over the workload's detection rates:
// STUN's with sink queries, else Z-DAT's (zone depth 2, sink at the
// metric center) with or without shortcuts.
func testTree(t testing.TB, g *graph.Graph, m *graph.Metric, w *mobility.Workload, sink bool, shortcuts bool) (*treedir.Tree, treedir.Config) {
	t.Helper()
	rates := w.DetectionRates(g)
	var tr *treedir.Tree
	var err error
	var tc treedir.Config
	if sink {
		tr, err = stun.BuildTree(g, m, rates)
		tc = treedir.Config{SinkQueries: true}
	} else {
		tr, err = zdat.BuildTree(g, m, rates, zdat.Config{ZoneDepth: 2, Sink: graph.Undefined})
		tc = treedir.Config{Shortcuts: shortcuts}
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr, tc
}

func buildTreeSim(t testing.TB, g *graph.Graph, m *graph.Metric, w *mobility.Workload, sink bool, shortcuts bool) (*TreeSim, *Engine) {
	t.Helper()
	tr, tc := testTree(t, g, m, w, sink, shortcuts)
	eng := NewEngine(0)
	s, err := NewTree(tr, m, eng, tc)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func TestTreeSimAllVariantsSettle(t *testing.T) {
	g := graph.Grid(7, 7)
	m := graph.NewMetric(g)
	for _, mode := range []struct {
		name            string
		sink, shortcuts bool
		seed            int64
	}{
		{"stun", true, false, 5},
		{"zdat", false, false, 5},
		{"zdat+sc", false, true, 5},
		{"zdat seed 6", false, false, 6},
	} {
		w, err := mobility.Generate(g, m, mobility.Config{Objects: 5, MovesPerObject: 30, Queries: 40, Seed: mode.seed})
		if err != nil {
			t.Fatal(err)
		}
		s, eng := buildTreeSim(t, g, m, w, mode.sink, mode.shortcuts)
		if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: mode.seed}); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if errs := s.Errors(); len(errs) > 0 {
			t.Fatalf("%s protocol errors: %v", mode.name, errs)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if got := len(s.Results()); got != len(w.Queries) {
			t.Fatalf("%s: %d of %d queries completed", mode.name, got, len(w.Queries))
		}
		mtr := s.Meter()
		if mtr.MaintRatio() < 1 {
			t.Fatalf("%s maintenance ratio %v", mode.name, mtr.MaintRatio())
		}
	}
}

func TestTreeSimSpanningTreeAncestorMove(t *testing.T) {
	// Moving an object to a tree ancestor of its proxy exercises the
	// repoint-at-leaf path.
	g := graph.Path(6)
	m := graph.NewMetric(g)
	tr, err := zdat.BuildTree(g, m, nil, zdat.Config{Sink: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0)
	s, err := NewTree(tr, m, eng, treedir.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(0, 5); err != nil {
		t.Fatal(err)
	}
	// 4 is the tree parent of 5 (path toward sink 0).
	if err := s.IssueMove(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.IssueMove(0, 5, 1); err != nil { // and back down
		t.Fatal(err)
	}
	if err := s.IssueQuery(0, 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res := s.Results()
	if len(res) != 1 || res[0].Found != 5 {
		t.Fatalf("results %+v", res)
	}
}

func TestConcurrentRatiosComparableToOneByOne(t *testing.T) {
	// The paper observes only a small factor increase from one-by-one to
	// concurrent execution. Compare the simulated MOT maintenance ratio
	// against the one-by-one core on the same workload.
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 8, MovesPerObject: 50, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(hs, core.Config{})
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
	oneByOne := d.Meter().MaintRatio()

	eng := NewEngine(0)
	s, err := NewMOT(hs, eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 21}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	concurrent := s.Meter().MaintRatio()
	if math.Abs(concurrent-oneByOne) > 0.5*oneByOne {
		t.Fatalf("concurrent ratio %v too far from one-by-one %v", concurrent, oneByOne)
	}
}

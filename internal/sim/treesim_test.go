package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

// TestGoldenTreeSimSchedule pins one concurrent schedule per tree
// baseline to the event: the engine's step count, the queries that
// waited at a stale proxy, the restarts, and the bits of both cost sums.
// FIFO ties in the engine break on the order of At/After calls, so any
// change in what the simulator schedules, or when, moves a number here.
// The values were recorded before the tree rules were folded into
// treedir's handler.
func TestGoldenTreeSimSchedule(t *testing.T) {
	g := graph.Grid(12, 12)
	m := graph.NewMetric(g)
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 8, MovesPerObject: 60, Queries: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		sink, shortcuts bool
		steps           int64
		waited          int
		restarts        int
		maint, query    uint64
	}{
		{"STUN", true, false, 9366, 40, 72, 0x40ac380000000000, 0x40be120000000000},
		{"Z-DAT", false, false, 5487, 7, 14, 0x4093480000000000, 0x40a8ae0000000000},
		{"Z-DAT+SC", false, true, 4283, 3, 9, 0x4093480000000000, 0x40a88c0000000000},
	} {
		s, eng := buildTreeSim(t, g, m, w, c.sink, c.shortcuts)
		if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 4}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		waited, restarts := 0, 0
		for _, r := range s.Results() {
			if r.Waited {
				waited++
			}
			restarts += r.Restarts
		}
		if waited == 0 || restarts == 0 {
			t.Errorf("%s: the schedule exercised %d waits and %d restarts, want both", c.name, waited, restarts)
		}
		mt := s.Meter()
		if eng.Steps() != c.steps || waited != c.waited || restarts != c.restarts ||
			math.Float64bits(mt.MaintCost) != c.maint || math.Float64bits(mt.QueryCost) != c.query {
			t.Errorf("%s: steps %d waited %d restarts %d maint %#x query %#x; golden %d %d %d %#x %#x", c.name,
				eng.Steps(), waited, restarts, math.Float64bits(mt.MaintCost), math.Float64bits(mt.QueryCost),
				c.steps, c.waited, c.restarts, c.maint, c.query)
		}
	}
}

// TestTreeDriversAgree replays one workload through the two drivers of
// treedir's handler, the sequential treedir.Directory and the event-driven
// TreeSim, with one operation in flight at a time: each operation is
// issued 1,000 time units after the previous one, far beyond the grid's
// diameter, and the engine drains before the next. Serialized, the drivers
// must agree on every query's answer and cost to the bit and on the whole
// meter after every operation, for all three baselines.
func TestTreeDriversAgree(t *testing.T) {
	g := graph.Grid(9, 9)
	m := graph.NewMetric(g)
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 6, MovesPerObject: 40, Queries: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name            string
		sink, shortcuts bool
	}{
		{"STUN", true, false},
		{"Z-DAT", false, false},
		{"Z-DAT+SC", false, true},
	} {
		tr, tc := testTree(t, g, m, w, c.sink, c.shortcuts)
		d, err := treedir.New(tr, m, tc)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(0)
		s, err := NewTree(tr, m, eng, tc)
		if err != nil {
			t.Fatal(err)
		}
		for o, at := range w.Initial {
			if err := d.Publish(core.ObjectID(o), at); err != nil {
				t.Fatal(err)
			}
			if err := s.Publish(core.ObjectID(o), at); err != nil {
				t.Fatal(err)
			}
		}
		at := 0.0
		settle := func(what string, i int) {
			t.Helper()
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Meter() != d.Meter() {
				t.Fatalf("%s: after %s %d the meters differ:\nsim %+v\ndir %+v", c.name, what, i, s.Meter(), d.Meter())
			}
		}
		// A query after every fourth move meets the trails mid-workload.
		qi := 0
		for i, mv := range w.Moves {
			at += 1000
			if err := d.Move(mv.Object, mv.To); err != nil {
				t.Fatalf("%s: move %d: %v", c.name, i, err)
			}
			if err := s.IssueMove(mv.Object, mv.To, at); err != nil {
				t.Fatal(err)
			}
			settle("move", i)
			if i%4 != 3 || qi == len(w.Queries) {
				continue
			}
			q := w.Queries[qi]
			at += 1000
			want, cost, err := d.Query(q.From, q.Object)
			if err != nil {
				t.Fatalf("%s: query %d: %v", c.name, qi, err)
			}
			if err := s.IssueQuery(q.From, q.Object, at); err != nil {
				t.Fatal(err)
			}
			settle("query", qi)
			res := s.Results()
			if len(res) != qi+1 {
				t.Fatalf("%s: %d results after %d queries", c.name, len(res), qi+1)
			}
			if got := res[qi]; got.Found != want || math.Float64bits(got.Cost) != math.Float64bits(cost) || got.Restarts != 0 || got.Waited {
				t.Fatalf("%s: query %d: sim %+v, directory found %d at cost %v", c.name, qi, got, want, cost)
			}
			qi++
		}
		if qi != len(w.Queries) {
			t.Fatalf("%s: replayed %d of %d queries", c.name, qi, len(w.Queries))
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// errPanicked marks an operation that panicked instead of returning.
var errPanicked = errors.New("panicked")

// within runs op on its own goroutine and returns its error, or
// errPanicked. An operation that does not return within a few seconds
// fails the test: a panic that left a lock held hangs the next one.
func within(t *testing.T, what string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("%w: %v", errPanicked, r)
			}
		}()
		done <- op()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
		return nil
	}
}

// TestDriversRejectUnknownSensor holds every driver of core's handler to
// one contract: Publish, Move and Query with a sensor outside the graph
// return an error that names the sensor and the range, and the structure
// stays usable, so a valid query right after each rejected call answers.
// For the simulator a move or query is its IssueMove or IssueQuery call
// plus Run.
func TestDriversRejectUnknownSensor(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	type ops struct {
		name    string
		publish func(core.ObjectID, graph.NodeID) error
		move    func(core.ObjectID, graph.NodeID) error
		query   func(graph.NodeID, core.ObjectID) (graph.NodeID, error)
	}
	dir := core.New(hs, core.Config{})
	tr := runtime.New(g, hs)
	eng := sim.NewEngine(0)
	ms, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(err error) error {
		if err != nil {
			return err
		}
		return eng.Run()
	}
	for _, d := range []ops{
		{"core", dir.Publish, dir.Move, func(from graph.NodeID, o core.ObjectID) (graph.NodeID, error) {
			proxy, _, err := dir.Query(from, o)
			return proxy, err
		}},
		{"runtime", tr.Publish, tr.Move, func(from graph.NodeID, o core.ObjectID) (graph.NodeID, error) {
			proxy, _, err := tr.Query(from, o)
			return proxy, err
		}},
		{"sim", ms.Publish,
			func(o core.ObjectID, to graph.NodeID) error { return run(ms.IssueMove(o, to, eng.Now())) },
			func(from graph.NodeID, o core.ObjectID) (graph.NodeID, error) {
				if err := run(ms.IssueQuery(from, o, eng.Now())); err != nil {
					return graph.Undefined, err
				}
				res := ms.Results()
				return res[len(res)-1].Found, nil
			}},
	} {
		at := graph.NodeID(5)
		valid := func(after string) {
			t.Helper()
			var proxy graph.NodeID
			err := within(t, d.name+" query after "+after, func() (err error) {
				proxy, err = d.query(15, 1)
				return err
			})
			if err != nil || proxy != at {
				t.Fatalf("%s: query after %s: proxy %d, %v; want %d", d.name, after, proxy, err, at)
			}
		}
		rejected := func(what string, bad graph.NodeID, op func() error) {
			t.Helper()
			what = fmt.Sprintf(what, bad)
			err := within(t, d.name+" "+what, op)
			if want := fmt.Sprintf("sensor %d out of range [0,16)", bad); err == nil || errors.Is(err, errPanicked) || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %s: got %v, want an error containing %q", d.name, what, err, want)
			}
			valid(what)
		}
		if err := within(t, d.name+" publish", func() error { return d.publish(1, at) }); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		for _, bad := range []graph.NodeID{-1, 16, 99} {
			rejected("Publish(2, %d)", bad, func() error { return d.publish(2, bad) })
			rejected("Move(1, %d)", bad, func() error { return d.move(1, bad) })
			rejected("Query(%d, 1)", bad, func() error { _, err := d.query(bad, 1); return err })
		}
		if err := within(t, d.name+" move", func() error { return d.move(1, 6) }); err != nil {
			t.Fatalf("%s: move after rejected calls: %v", d.name, err)
		}
		at = 6
		valid("a move")
		if err := within(t, d.name+" publish", func() error { return d.publish(2, 0) }); err != nil {
			t.Fatalf("%s: publish after rejected calls: %v", d.name, err)
		}
	}
}

package mot

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mobility"
)

// Every facade directory rejects a sensor outside the network with an
// error, never a panic, and keeps working afterwards.
func TestFacadeRejectsUnknownSensor(t *testing.T) {
	g := Grid(4, 4)
	m := NewMetric(g)
	tracker, err := NewTrackerWithMetric(g, m, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := NewDistributed(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	stun, err := NewSTUN(g, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	zdat, err := NewZDAT(g, m, nil, ZDATOptions{ZoneDepth: 1, Sink: Undefined})
	if err != nil {
		t.Fatal(err)
	}
	type ops interface {
		Publish(o ObjectID, at NodeID) error
		Move(o ObjectID, to NodeID) error
		Query(from NodeID, o ObjectID) (NodeID, float64, error)
	}
	for _, c := range []struct {
		name string
		d    ops
	}{
		{"Tracker", tracker},
		{"Distributed", dist},
		{"STUN", stun},
		{"Z-DAT", zdat},
	} {
		var bad NodeID
		call := func(what string, f func() error) {
			t.Helper()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: %s panicked: %v", c.name, what, r)
				}
			}()
			err := f()
			if err == nil {
				t.Errorf("%s: %s succeeded", c.name, what)
			} else if !strings.Contains(err.Error(), fmt.Sprintf("sensor %d", bad)) {
				t.Errorf("%s: %s: error %q does not name the sensor", c.name, what, err)
			}
		}
		for _, bad = range []NodeID{-1, 16, 99} {
			call(fmt.Sprintf("Publish(2, %d)", bad), func() error { return c.d.Publish(2, bad) })
		}
		if err := c.d.Publish(1, 5); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, bad = range []NodeID{-1, 16, 99} {
			call(fmt.Sprintf("Move(1, %d)", bad), func() error { return c.d.Move(1, bad) })
			call(fmt.Sprintf("Query(%d, 1)", bad), func() error { _, _, err := c.d.Query(bad, 1); return err })
		}
		if err := c.d.Move(1, 6); err != nil {
			t.Fatalf("%s: move after rejected calls: %v", c.name, err)
		}
		if proxy, _, err := c.d.Query(15, 1); err != nil || proxy != 6 {
			t.Fatalf("%s: query after rejected calls: proxy %d, %v", c.name, proxy, err)
		}
	}
}

// NewZDAT refuses a sink outside the network instead of rooting the tree
// elsewhere or panicking.
func TestNewZDATRejectsBadSink(t *testing.T) {
	g := Grid(4, 4)
	m := NewMetric(g)
	for _, sink := range []NodeID{16, 99, -5} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("sink %d: panicked: %v", sink, r)
				}
			}()
			if _, err := NewZDAT(g, m, nil, ZDATOptions{Sink: sink}); err == nil {
				t.Errorf("sink %d: accepted", sink)
			}
		}()
	}
}

// NewSTUN refuses a rate key that is not an edge of the network, whatever
// its rate, with an error naming the key, instead of panicking on an
// endpoint outside the network or joining two sensors that are not
// adjacent.
func TestNewSTUNRejectsNonEdgeRates(t *testing.T) {
	g := Grid(4, 4)
	m := NewMetric(g)
	for _, c := range []struct {
		key  mobility.EdgeKey
		rate float64
		want string
	}{
		{mobility.EdgeKey{U: 0, V: 5000}, 1, "{0,5000}"},
		{mobility.EdgeKey{U: -1, V: 2}, 1, "{-1,2}"},
		{mobility.EdgeKey{U: 0, V: 15}, 3, "{0,15}"},
		{mobility.EdgeKey{U: 0, V: 15}, 0, "{0,15}"},
		{mobility.EdgeKey{U: 6, V: 6}, 1, "{6,6}"},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("key %v: panicked: %v", c.key, r)
				}
			}()
			rates := EdgeRates{mobility.MakeEdgeKey(0, 1): 2, c.key: c.rate}
			d, err := NewSTUN(g, m, rates)
			if err == nil || d != nil {
				t.Errorf("key %v: accepted", c.key)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("key %v: error %q does not name the key", c.key, err)
			}
		}()
	}
}

package overlay_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
	"repro/internal/partition"
)

// Every station an overlay hands out has a Key in [0, n) for its graph of
// n nodes: the MOT slot store indexes its level rows by Key.
func TestStationKeysInNodeRange(t *testing.T) {
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hier.Build(g, m, hier.Config{Seed: 1, UseParentSets: true, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := partition.Build(g, m, partition.Config{SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ov   overlay.Overlay
	}{{"hier", hs}, {"hier parent sets", hp}, {"partition", ps}} {
		name, ov := c.name, c.ov
		n := g.N()
		check := func(what string, st overlay.Station) {
			t.Helper()
			if st.Key < 0 || st.Key >= int64(n) {
				t.Fatalf("%s: %s %v: key outside [0,%d)", name, what, st, n)
			}
		}
		check("root", ov.Root())
		for u := graph.NodeID(0); int(u) < n; u++ {
			for _, level := range ov.DPath(u) {
				for _, st := range level {
					check("DPath station", st)
				}
			}
			for l := 0; l <= ov.Height(); l++ {
				check("home station", ov.HomeStation(u, l))
			}
		}
	}
}

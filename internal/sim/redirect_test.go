package sim

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
)

// The improved concurrent query handling (§3): forwarding tombstones left
// by deletes let queries that lost the trail jump toward the new proxy
// instead of re-climbing.
func TestRedirectsStillCorrect(t *testing.T) {
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 6, MovesPerObject: 40, Queries: 80, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, redirects := range []bool{false, true} {
		eng := NewEngine(0)
		s, err := NewMOT(hs, eng, Config{Redirects: redirects})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 13}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("redirects=%t: %v", redirects, err)
		}
		if got := len(s.Results()); got != len(w.Queries) {
			t.Fatalf("redirects=%t: %d of %d queries completed", redirects, got, len(w.Queries))
		}
	}
}

// With redirects, a query racing a burst of moves follows tombstones and
// completes with no more restarts than the plain re-climb strategy.
func TestRedirectsBoundRestarts(t *testing.T) {
	g := graph.Grid(10, 10)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 2, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(redirects bool) (restarts int) {
		eng := NewEngine(0)
		s, err := NewMOT(hs, eng, Config{Redirects: redirects})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(1, 0); err != nil {
			t.Fatal(err)
		}
		// A long run of rapid moves along the bottom row with queries
		// launched mid-flight from the far corner.
		for i := 1; i <= 9; i++ {
			if err := s.IssueMove(1, graph.NodeID(i), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := s.IssueQuery(99, 1, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range s.Results() {
			if r.Found != 9 {
				t.Fatalf("redirects=%t: query found %d", redirects, r.Found)
			}
			total += r.Restarts
		}
		return total
	}
	plain := run(false)
	redirected := run(true)
	if redirected > plain {
		t.Fatalf("redirects increased restarts: %d vs %d", redirected, plain)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
)

// Failure injection: corrupt the directory state in targeted ways and
// verify CheckInvariants reports each corruption. This guards the checker
// itself — a checker that cannot see breakage would make every other
// invariant test meaningless.
func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	setup := func() *Directory {
		d, g := buildDir(t, 6, 6, hier.Config{Seed: 3, SpecialParentOffset: 2}, Config{})
		if err := d.Publish(1, 0); err != nil {
			t.Fatal(err)
		}
		for _, to := range []graph.NodeID{1, 2, 8, 14} {
			if err := d.Move(1, to); err != nil {
				t.Fatal(err)
			}
		}
		_ = g
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("clean state rejected: %v", err)
		}
		return d
	}

	t.Run("root entry removed", func(t *testing.T) {
		d := setup()
		root := d.h.ov.Root()
		s, _ := d.h.peek(root)
		delete(s.dl, 1)
		if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "root") {
			t.Fatalf("missed root corruption: %v", err)
		}
	})

	t.Run("mid-trail entry removed", func(t *testing.T) {
		d := setup()
		// Remove the entry one level below the root.
		root := d.h.ov.Root()
		s, _ := d.h.peek(root)
		child := s.dl[1].child
		cs, _ := d.h.peek(child)
		delete(cs.dl, 1)
		if err := d.CheckInvariants(); err == nil {
			t.Fatal("missed broken trail")
		}
	})

	t.Run("orphan entry injected", func(t *testing.T) {
		d := setup()
		// Stamp the object at a level-1 station that is not on its trail.
		var orphan overlay.Station
		found := false
		for u := graph.NodeID(0); u < 36 && !found; u++ {
			orphan = d.h.ov.HomeStation(u, 1)
			_, held := d.h.entry(orphan, 1)
			found = !held
		}
		if !found {
			t.Fatal("every level-1 station holds the object")
		}
		d.h.slot(orphan).dl[1] = dlEntry{hasChild: false}
		if err := d.CheckInvariants(); err == nil {
			t.Fatal("missed orphan entry")
		}
	})

	t.Run("stale SDL shortcut", func(t *testing.T) {
		d := setup()
		ghost := overlay.Station{Level: 1, Key: 777, Host: 3}
		sp := d.h.ov.Root()
		d.h.slot(sp).sdl[1] = sdlEntry{child: ghost}
		if err := d.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "SDL") {
			t.Fatalf("missed stale SDL: %v", err)
		}
	})

	t.Run("wrong proxy", func(t *testing.T) {
		d := setup()
		d.loc[1] = 30 // lie about the ground truth
		if err := d.CheckInvariants(); err == nil {
			t.Fatal("missed proxy mismatch")
		}
	})

	t.Run("trail level skip", func(t *testing.T) {
		d := setup()
		root := d.h.ov.Root()
		s, _ := d.h.peek(root)
		e := s.dl[1]
		// Point the root two levels down directly.
		down, _ := d.h.peek(e.child)
		e.child = down.dl[1].child
		s.dl[1] = e
		if err := d.CheckInvariants(); err == nil {
			t.Fatal("missed level skip")
		}
	})
}

// A query for an object whose trail was severed reports an error rather
// than answering wrongly.
func TestQueryReportsBrokenTrail(t *testing.T) {
	d, _ := buildDir(t, 6, 6, hier.Config{Seed: 3, SpecialParentOffset: -1}, Config{})
	if err := d.Publish(1, 10); err != nil {
		t.Fatal(err)
	}
	// Sever the trail below the root.
	root := d.h.ov.Root()
	s, _ := d.h.peek(root)
	child := s.dl[1].child
	cs, _ := d.h.peek(child)
	delete(cs.dl, 1)
	if _, _, err := d.Query(30, 1); err == nil {
		t.Fatal("query answered over a severed trail")
	}
}

// Move onto a corrupted directory (object missing everywhere) fails
// loudly instead of corrupting further.
func TestMoveReportsMissingTrail(t *testing.T) {
	d, _ := buildDir(t, 5, 5, hier.Config{Seed: 1, SpecialParentOffset: -1}, Config{})
	if err := d.Publish(1, 3); err != nil {
		t.Fatal(err)
	}
	// Erase every trace of the object.
	d.h.eachSlot(func(s *slot) {
		delete(s.dl, 1)
		delete(s.sdl, 1)
	})
	if err := d.Move(1, 4); err == nil {
		t.Fatal("move over an erased trail succeeded")
	}
}

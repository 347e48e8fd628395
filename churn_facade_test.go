package mot

import (
	"errors"
	"math/rand"
	"testing"
)

// churnTracker builds a tracker over a grid with a moved-around
// population, returning the ground-truth proxies.
func churnTracker(t *testing.T, w, h, objects int, opt Options) (*Tracker, *Graph, []NodeID) {
	t.Helper()
	g := Grid(w, h)
	tr, err := NewTracker(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	locs := make([]NodeID, objects)
	for o := range locs {
		locs[o] = NodeID(rng.Intn(g.N()))
		if err := tr.Publish(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10*objects; i++ {
		o := rng.Intn(len(locs))
		nbrs := g.NeighborIDs(locs[o])
		locs[o] = nbrs[rng.Intn(len(nbrs))]
		if err := tr.Move(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	return tr, g, locs
}

// TestFailNodeUnsupportedOverlays pins the call-time rejection: the §6
// sparse partition and §5 load-balanced placement cannot be repaired in
// place, so churn events return ErrChurnUnsupported and leave tracking
// untouched.
func TestFailNodeUnsupportedOverlays(t *testing.T) {
	g := Grid(3, 3)
	for _, opt := range []Options{{GeneralOverlay: true}, {LoadBalance: true}} {
		tr, err := NewTracker(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Publish(1, 4); err != nil {
			t.Fatal(err)
		}
		if err := tr.FailNode(4); !errors.Is(err, ErrChurnUnsupported) {
			t.Fatalf("%+v: FailNode returned %v, want ErrChurnUnsupported", opt, err)
		}
		if err := tr.RecoverNode(4); !errors.Is(err, ErrChurnUnsupported) {
			t.Fatalf("%+v: RecoverNode returned %v, want ErrChurnUnsupported", opt, err)
		}
		if got := tr.FailedNodes(); len(got) != 0 {
			t.Fatalf("%+v: FailedNodes = %v after a rejected FailNode", opt, got)
		}
		if got, _, err := tr.Query(0, 1); err != nil || got != 4 {
			t.Fatalf("%+v: query after rejected churn: proxy %d err %v", opt, got, err)
		}
		if err := tr.Unpublish(1); err != nil {
			t.Fatalf("%+v: Unpublish: %v", opt, err)
		}
	}
}

// TestFailRecoverDefinedNoOps pins the §7 idempotence contract: failing a
// failed node and recovering a live node change nothing — no error, no
// extra churn accounting, no meter movement.
func TestFailRecoverDefinedNoOps(t *testing.T) {
	g := Grid(5, 5)
	tr, err := NewTracker(g, Options{Seed: 4, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Publish(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.RecoverNode(3); err != nil {
		t.Fatalf("recovering a live node: %v", err)
	}
	if err := tr.FailNode(12); err != nil {
		t.Fatalf("FailNode: %v", err)
	}
	before := tr.Meter()
	if err := tr.FailNode(12); err != nil {
		t.Fatalf("double FailNode: %v", err)
	}
	if got := tr.Meter(); got != before {
		t.Fatalf("double FailNode moved the meter: %+v vs %+v", got, before)
	}
	if got := tr.FailedNodes(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("FailedNodes = %v", got)
	}
	if err := tr.RecoverNode(12); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if err := tr.RecoverNode(12); err != nil {
		t.Fatalf("double RecoverNode: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestIncrementalChurnAvailability is the §7 availability claim at facade
// scope: while sensors are down, every object on a live proxy
// stays queryable from live nodes, and the directory passes invariants
// after each event once the damage is repaired.
func TestIncrementalChurnAvailability(t *testing.T) {
	tr, g, locs := churnTracker(t, 8, 8, 5, Options{Seed: 11, UseParentSets: true, SpecialParentOffset: 2})
	proxies := map[NodeID]bool{}
	for _, p := range locs {
		proxies[p] = true
	}
	// Fail three non-proxy sensors in sequence, then recover them.
	down := []NodeID{}
	for n := 0; n < g.N() && len(down) < 3; n++ {
		if !proxies[NodeID(n)] {
			down = append(down, NodeID(n))
		}
	}
	check := func(stage string) {
		t.Helper()
		failed := map[NodeID]bool{}
		for _, n := range tr.FailedNodes() {
			failed[n] = true
		}
		for o, want := range locs {
			from := NodeID(0)
			for failed[from] {
				from++
			}
			got, _, err := tr.Query(from, ObjectID(o))
			if err != nil {
				t.Fatalf("%s: query %d from %d: %v", stage, o, from, err)
			}
			if got != want {
				t.Fatalf("%s: object %d at %d, want %d", stage, o, got, want)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants: %v", stage, err)
		}
	}
	for _, n := range down {
		if err := tr.FailNode(n); err != nil {
			t.Fatalf("FailNode(%d): %v", n, err)
		}
		check("after fail")
	}
	// Tracking continues mid-churn: move an object across live nodes.
	nbrs := g.NeighborIDs(locs[0])
	to := nbrs[len(nbrs)-1]
	if err := tr.Move(0, to); err != nil {
		t.Fatalf("Move mid-churn: %v", err)
	}
	locs[0] = to
	check("after mid-churn move")
	for _, n := range down {
		if err := tr.RecoverNode(n); err != nil {
			t.Fatalf("RecoverNode(%d): %v", n, err)
		}
		check("after recover")
	}
	if m := tr.Meter(); m.RecoveryOps == 0 {
		t.Fatal("churn repaired nothing — the schedule should have damaged at least one trail")
	}
}

// TestIncrementalThresholdRebuildParksObjects drives churn past the
// threshold so the coarse fallback rebuilds over the live set: objects on
// a failed proxy park until their sensor returns, everything else stays
// tracked.
func TestIncrementalThresholdRebuildParksObjects(t *testing.T) {
	opt := Options{Seed: 8, UseParentSets: true, SpecialParentOffset: 2,
		Chaos: &ChaosConfig{ChurnThreshold: 0.01}}
	tr, _, locs := churnTracker(t, 6, 6, 4, opt)
	victim := locs[1]
	if err := tr.FailNode(victim); err != nil {
		t.Fatalf("FailNode(%d): %v", victim, err)
	}
	parked := tr.ParkedObjects()
	if len(parked) == 0 {
		t.Fatal("threshold rebuild parked nothing despite a failed proxy")
	}
	for _, o := range parked {
		if locs[o] != victim {
			t.Fatalf("object %d parked but proxied at %d, not the victim %d", o, locs[o], victim)
		}
		if _, ok := tr.Location(o); ok {
			t.Fatalf("parked object %d still in the directory", o)
		}
		if err := tr.Move(o, 0); err == nil {
			t.Fatalf("moving parked object %d accepted", o)
		}
	}
	// Unparked survivors remain available during the outage.
	for o, want := range locs {
		if want == victim {
			continue
		}
		from := NodeID(0)
		if from == victim {
			from = 1
		}
		got, _, err := tr.Query(from, ObjectID(o))
		if err != nil || got != want {
			t.Fatalf("object %d: got %d err %v, want %d", o, got, err, want)
		}
	}
	if err := tr.RecoverNode(victim); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if got := tr.ParkedObjects(); len(got) != 0 {
		t.Fatalf("objects still parked after recovery: %v", got)
	}
	for o, want := range locs {
		if got, ok := tr.Location(ObjectID(o)); !ok || got != want {
			t.Fatalf("object %d at %d after recovery, want %d", o, got, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestRebuildEachEventMatchesRepair is the facade-scope half of the
// golden equivalence: an identical churn + workload schedule under
// hier.Repair and under from-scratch rebuilds per event must land on
// byte-identical meters and query costs.
func TestRebuildEachEventMatchesRepair(t *testing.T) {
	run := func(rebuild bool) (*Tracker, []NodeID) {
		opt := Options{Seed: 13, UseParentSets: true, SpecialParentOffset: 2,
			Chaos: &ChaosConfig{RebuildEachEvent: rebuild}}
		tr, g, locs := churnTracker(t, 7, 7, 4, opt)
		rng := rand.New(rand.NewSource(31))
		downAt := []NodeID{5, 17, 40}
		for _, n := range downAt {
			if err := tr.FailNode(n); err != nil {
				t.Fatalf("FailNode(%d): %v", n, err)
			}
			for i := 0; i < 6; i++ {
				o := rng.Intn(len(locs))
				if locs[o] == n {
					continue
				}
				nbrs := g.NeighborIDs(locs[o])
				to := nbrs[rng.Intn(len(nbrs))]
				if to == n {
					continue
				}
				locs[o] = to
				if err := tr.Move(ObjectID(o), to); err != nil {
					t.Fatalf("Move: %v", err)
				}
			}
			if err := tr.RecoverNode(n); err != nil {
				t.Fatalf("RecoverNode(%d): %v", n, err)
			}
		}
		return tr, locs
	}
	a, locsA := run(false)
	b, locsB := run(true)
	if a.Meter() != b.Meter() {
		t.Fatalf("meters diverged:\nrepair:  %+v\nrebuild: %+v", a.Meter(), b.Meter())
	}
	for o := range locsA {
		if locsA[o] != locsB[o] {
			t.Fatalf("object %d ground truth diverged: %d vs %d", o, locsA[o], locsB[o])
		}
		pa, ca, errA := a.Query(3, ObjectID(o))
		pb, cb, errB := b.Query(3, ObjectID(o))
		if errA != nil || errB != nil || pa != pb || ca != cb {
			t.Fatalf("query %d: repair=(%d,%v,%v) rebuild=(%d,%v,%v)", o, pa, ca, errA, pb, cb, errB)
		}
	}
}

// TestFailNodeKeepsTwoLiveSensors guards the bottom of the liveness range.
func TestFailNodeKeepsTwoLiveSensors(t *testing.T) {
	g := Grid(2, 2)
	tr, err := NewTracker(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.FailNode(0); err != nil {
		t.Fatalf("FailNode(0): %v", err)
	}
	if err := tr.FailNode(1); err != nil {
		t.Fatalf("FailNode(1): %v", err)
	}
	if err := tr.FailNode(2); err == nil {
		t.Fatal("failing below two live sensors accepted")
	}
	if err := tr.RecoverNode(1); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if err := tr.FailNode(2); err != nil {
		t.Fatalf("FailNode after recovery: %v", err)
	}
}

package mot

import (
	"errors"
	"math/rand"
	"testing"
)

// chaosTracker builds a tracker with a moved-around population of objects.
func chaosTracker(t *testing.T, opt Options) (*Tracker, *Graph, []NodeID) {
	t.Helper()
	g := Grid(7, 7)
	tr, err := NewTracker(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	locs := make([]NodeID, 4)
	for o := range locs {
		locs[o] = NodeID(rng.Intn(g.N()))
		if err := tr.Publish(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		o := rng.Intn(len(locs))
		nbrs := g.NeighborIDs(locs[o])
		locs[o] = nbrs[rng.Intn(len(nbrs))]
		if err := tr.Move(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	return tr, g, locs
}

// Failing the root station's host drops the top of every trail; the
// overlay re-elects a root and every broken trail is re-stamped before
// FailNode returns, so queries stay correct while the node is down and
// after it recovers, with the walks charged to RecoveryCost.
func TestChaosFailRecoverRepairsTrails(t *testing.T) {
	tr, g, locs := chaosTracker(t, Options{Seed: 7, SpecialParentOffset: 2})
	root := tr.RootNode()
	for _, p := range locs {
		if p == root {
			t.Fatalf("fixture proxies an object at the root host %d", root)
		}
	}
	if err := tr.FailNode(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.FailNode(root); err != nil {
		t.Fatalf("re-failing a failed node must be a no-op, got %v", err)
	}
	if got := tr.FailedNodes(); len(got) != 1 || got[0] != root {
		t.Fatalf("FailedNodes = %v, want [%d]", got, root)
	}
	if tr.RootNode() == root {
		t.Fatalf("root still hosted on failed node %d", root)
	}
	queryAll := func(stage string) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants %s: %v", stage, err)
		}
		for o, want := range locs {
			from := NodeID((o * 13) % g.N())
			if from == root {
				from++
			}
			got, _, err := tr.Query(from, ObjectID(o))
			if err != nil || got != want {
				t.Fatalf("object %d %s: proxy %d err %v, want %d", o, stage, got, err, want)
			}
		}
	}
	queryAll("while the root host is down")
	m := tr.Meter()
	if m.RecoveryOps == 0 || m.RecoveryCost <= 0 {
		t.Fatalf("repairs not metered: %d ops, cost %v", m.RecoveryOps, m.RecoveryCost)
	}
	if err := tr.RecoverNode(root); err != nil {
		t.Fatal(err)
	}
	queryAll("after recovery")
	if len(tr.FailedNodes()) != 0 {
		t.Fatalf("failed set not cleared: %v", tr.FailedNodes())
	}
}

// Past the churn threshold, churn falls back to the coarse §7 path — a
// from-scratch rebuild over the live set — and carries the meter over.
func TestChaosChurnThresholdTriggersRebuild(t *testing.T) {
	tr, g, locs := chaosTracker(t, Options{
		Seed: 3, SpecialParentOffset: 2,
		Chaos: &ChaosConfig{ChurnThreshold: 0.01}, // one failure tips it
	})
	before := tr.Meter()
	root := tr.RootNode()
	if err := tr.FailNode(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.RecoverNode(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rebuild: %v", err)
	}
	for o, want := range locs {
		got, _, err := tr.Query(NodeID((o*17)%g.N()), ObjectID(o))
		if err != nil || got != want {
			t.Fatalf("object %d after rebuild: proxy %d err %v, want %d", o, got, err, want)
		}
	}
	after := tr.Meter()
	if after.PublishCost < before.PublishCost || after.MaintCost < before.MaintCost {
		t.Fatalf("rebuild lost accumulated costs: before %+v after %+v", before, after)
	}
}

// Validation: out-of-range failures are rejected, recovering a healthy
// node is a no-op, and Unpublish retires an object while a node is down.
func TestChaosFailRecoverValidation(t *testing.T) {
	tr, g, _ := chaosTracker(t, Options{Seed: 4, SpecialParentOffset: 2})
	if err := tr.FailNode(NodeID(g.N())); err == nil {
		t.Fatal("out-of-range FailNode accepted")
	}
	if err := tr.FailNode(-1); err == nil {
		t.Fatal("negative FailNode accepted")
	}
	if err := tr.RecoverNode(0); err != nil {
		t.Fatalf("recovering a healthy node must be a no-op, got: %v", err)
	}
	if err := tr.RecoverNode(-1); err == nil {
		t.Fatal("negative RecoverNode accepted")
	}
	if err := tr.Unpublish(99); err == nil {
		t.Fatal("unpublishing an unknown object accepted")
	}

	// Retire object 0 while the root host is down: recovery must skip it.
	root := tr.RootNode()
	if err := tr.FailNode(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Unpublish(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.RecoverNode(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Query(0, 0); err == nil {
		t.Fatal("query answered for an unpublished object")
	}
	if objs := tr.Objects(); len(objs) != 3 {
		t.Fatalf("objects after unpublish: %v", objs)
	}
	// A retired object can be introduced again from scratch.
	if err := tr.Publish(0, 5); err != nil {
		t.Fatal(err)
	}
	if got, _, err := tr.Query(40, 0); err != nil || got != 5 {
		t.Fatalf("re-published object: proxy %d err %v", got, err)
	}
}

// The distributed facade under Options.Chaos: drop/delay faults replay
// deterministically, and explicit Crash/Recover surfaces typed delivery
// errors while down and works again once back up.
func TestChaosDistributedFaults(t *testing.T) {
	g := Grid(6, 6)
	run := func() (string, float64) {
		d, err := NewDistributed(g, Options{
			Seed: 1, SpecialParentOffset: 2,
			Chaos: &ChaosConfig{Seed: 5, DropRate: 0.3, DelayRate: 0.3, MaxAttempts: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Publish(1, 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			if err := d.Move(1, NodeID((i*5)%g.N())); err != nil {
				t.Fatal(err)
			}
		}
		if got, _, err := d.Query(35, 1); err != nil || got != 4 {
			t.Fatalf("query under chaos: proxy %d err %v", got, err)
		}
		return d.FaultTrace().Render(), d.SimulatedDelay()
	}
	t1, d1 := run()
	if t1 == "" || d1 <= 0 {
		t.Fatalf("no faults injected (trace %q, delay %v)", t1, d1)
	}
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Fatal("distributed chaos did not replay byte-identically")
	}

	// Crash the whole network: the next operation fails typed, not hung.
	d, err := NewDistributed(g, Options{
		Seed: 1, SpecialParentOffset: 2, Chaos: &ChaosConfig{Seed: 6, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Publish(1, 12); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.N(); n++ {
		d.Crash(NodeID(n))
	}
	var de *DeliveryError
	if err := d.Move(1, 3); !errors.As(err, &de) {
		t.Fatalf("move through crashed network returned %v, want *DeliveryError", err)
	}
	for n := 0; n < g.N(); n++ {
		d.Recover(NodeID(n))
	}
	if err := d.Publish(2, 20); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if got, _, err := d.Query(0, 2); err != nil || got != 20 {
		t.Fatalf("query after recovery: proxy %d err %v", got, err)
	}
}

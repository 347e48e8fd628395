package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hier"
)

// populate publishes objs objects and walks each through a few moves,
// returning the final proxies.
func populate(t *testing.T, d *Directory, g *graph.Graph, objs int, seed int64) []graph.NodeID {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	locs := make([]graph.NodeID, objs)
	for o := range locs {
		locs[o] = graph.NodeID(rng.Intn(g.N()))
		if err := d.Publish(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10*objs; i++ {
		o := rng.Intn(objs)
		nbrs := g.NeighborIDs(locs[o])
		locs[o] = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(ObjectID(o), locs[o]); err != nil {
			t.Fatal(err)
		}
	}
	return locs
}

func TestChaosRecoveryUnpublishErasesTrail(t *testing.T) {
	d, g := buildDir(t, 6, 6, hier.Config{Seed: 1, SpecialParentOffset: 2}, Config{})
	locs := populate(t, d, g, 3, 7)
	if err := d.Unpublish(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Location(1); ok {
		t.Fatal("unpublished object still has a location")
	}
	if _, _, err := d.Query(0, 1); err == nil {
		t.Fatal("query answered for an unpublished object")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after unpublish: %v", err)
	}
	for _, o := range []ObjectID{0, 2} {
		if got, _, err := d.Query(0, o); err != nil || got != locs[o] {
			t.Fatalf("surviving object %d: proxy %d err %v, want %d", o, got, err, locs[o])
		}
	}
	m := d.Meter()
	if m.RecoveryOps != 1 || m.RecoveryCost <= 0 {
		t.Fatalf("unpublish walk not metered: %+v", m)
	}
	if err := d.Unpublish(1); err == nil {
		t.Fatal("double unpublish accepted")
	}
	// Re-introducing the object is a fresh publish.
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if got, _, err := d.Query(35, 1); err != nil || got != 0 {
		t.Fatalf("re-published object: proxy %d err %v", got, err)
	}
}

func TestChaosRecoveryDropHostThenRepair(t *testing.T) {
	d, g := buildDir(t, 7, 7, hier.Config{Seed: 2, SpecialParentOffset: 2}, Config{})
	locs := populate(t, d, g, 4, 9)
	root := d.h.ov.Root().Host
	damaged := d.DropHost(root)
	// The root station tops every home chain, so every object is damaged,
	// and the list is sorted.
	if len(damaged) != 4 {
		t.Fatalf("DropHost(root) damaged %v, want all 4 objects", damaged)
	}
	for i, o := range damaged {
		if int(o) != i {
			t.Fatalf("damaged list not sorted: %v", damaged)
		}
	}
	if err := d.CheckInvariants(); err == nil {
		t.Fatal("invariants still hold after dropping the root host")
	}
	for _, o := range damaged {
		if err := d.Repair(o); err != nil {
			t.Fatalf("repair %d: %v", o, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	for o, want := range locs {
		if got, _, err := d.Query(graph.NodeID((o*5)%g.N()), ObjectID(o)); err != nil || got != want {
			t.Fatalf("object %d after repair: proxy %d err %v, want %d", o, got, err, want)
		}
	}
	m := d.Meter()
	if m.RecoveryOps != 4 || m.RecoveryCost <= 0 {
		t.Fatalf("repairs not metered: %+v", m)
	}
	// A repaired directory keeps working.
	if err := d.Move(0, locs[1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Repair(99); err == nil {
		t.Fatal("repair of an unpublished object accepted")
	}
}

func TestChaosRecoveryDropHostSparesDistantTrails(t *testing.T) {
	d, g := buildDir(t, 6, 6, hier.Config{Seed: 3, SpecialParentOffset: 2}, Config{})
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	// A leaf host that appears in no trail damages nothing.
	var bystander graph.NodeID = -1
	for n, load := range d.LoadByNode(g.N()) {
		if load == 0 {
			bystander = graph.NodeID(n)
			break
		}
	}
	if bystander < 0 {
		t.Skip("every node hosts entries on this overlay")
	}
	if got := d.DropHost(bystander); len(got) != 0 {
		t.Fatalf("dropping an empty host damaged %v", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChaosRecoveryAbsorbMeter(t *testing.T) {
	d1, g := buildDir(t, 5, 5, hier.Config{Seed: 4}, Config{})
	populate(t, d1, g, 2, 3)
	d2, _ := buildDir(t, 5, 5, hier.Config{Seed: 5}, Config{})
	if err := d2.Publish(9, 0); err != nil {
		t.Fatal(err)
	}
	own := d2.Meter()
	d2.AbsorbMeter(d1.Meter())
	got := d2.Meter()
	want := d1.Meter()
	want.Add(own)
	if got != want {
		t.Fatalf("absorbed meter %+v, want %+v", got, want)
	}
}

package treedir

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// spanningTree builds a BFS spanning tree of g rooted at root, with one
// tree node per sensor.
func spanningTree(t testing.TB, g *graph.Graph, root graph.NodeID) *Tree {
	t.Helper()
	tr := NewTree()
	ids := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		id, err := tr.AddLeaf(graph.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		ids[u] = id
	}
	visited := make([]bool, g.N())
	queue := []graph.NodeID{root}
	visited[root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.NeighborIDs(u) {
			if !visited[v] {
				visited[v] = true
				if err := tr.SetParent(ids[v], ids[u]); err != nil {
					t.Fatal(err)
				}
				queue = append(queue, v)
			}
		}
	}
	if err := tr.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTreeBuilderValidation(t *testing.T) {
	tr := NewTree()
	if err := tr.Finalize(); err == nil {
		t.Fatal("empty tree finalized")
	}
	a, _ := tr.AddLeaf(0)
	if _, err := tr.AddLeaf(0); err == nil {
		t.Fatal("duplicate leaf accepted")
	}
	if _, err := tr.AddLeaf(-1); err == nil {
		t.Fatal("negative sensor accepted")
	}
	b, _ := tr.AddLeaf(1)
	if err := tr.SetParent(a, a); err == nil {
		t.Fatal("self-parent accepted")
	}
	if err := tr.SetParent(a, 99); err == nil {
		t.Fatal("out-of-range parent accepted")
	}
	r, _ := tr.AddInternal(0)
	if err := tr.SetParent(a, r); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetParent(a, r); err == nil {
		t.Fatal("re-parenting accepted")
	}
	if err := tr.SetParent(b, r); err != nil {
		t.Fatal(err)
	}
	if err := tr.Finalize(); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != r || tr.Len() != 3 {
		t.Fatalf("root %d len %d", tr.Root(), tr.Len())
	}
	if tr.Depth(a) != 1 || tr.Depth(r) != 0 {
		t.Fatal("depths wrong")
	}
	if _, err := tr.AddLeaf(5); err == nil {
		t.Fatal("mutation after finalize accepted")
	}
}

func TestTwoRootsRejected(t *testing.T) {
	tr := NewTree()
	tr.AddLeaf(0)
	tr.AddLeaf(1)
	if err := tr.Finalize(); err == nil {
		t.Fatal("forest finalized as tree")
	}
}

// A root plus a detached two-node cycle has exactly one root, so only the
// walk up the parent pointers can tell that the cycle never reaches it.
func TestDetachedCycleRejected(t *testing.T) {
	tr := NewTree()
	tr.AddInternal(0)
	a, _ := tr.AddLeaf(1)
	b, _ := tr.AddLeaf(2)
	if err := tr.SetParent(a, b); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetParent(b, a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Finalize(); err == nil {
		t.Fatal("a root plus a detached cycle finalized as a tree")
	}
}

func TestDirectoryRequiresFinalizedTree(t *testing.T) {
	tr := NewTree()
	tr.AddLeaf(0)
	g := graph.Path(2)
	if _, err := New(tr, graph.NewMetric(g), Config{}); err == nil {
		t.Fatal("unfinalized tree accepted")
	}
}

func TestPublishMoveQueryOnSpanningTree(t *testing.T) {
	g := graph.Grid(6, 6)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 0)
	d, err := New(tr, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(1, 35); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(1, 0); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	if err := d.Move(9, 1); err == nil {
		t.Fatal("move of unpublished accepted")
	}
	if _, _, err := d.Query(0, 9); err == nil {
		t.Fatal("query of unpublished accepted")
	}
	rng := rand.New(rand.NewSource(4))
	cur := graph.NodeID(35)
	for i := 0; i < 200; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := d.Move(1, cur); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		got, cost, err := d.Query(graph.NodeID(u), 1)
		if err != nil {
			t.Fatalf("query from %d: %v", u, err)
		}
		if got != cur {
			t.Fatalf("query from %d said %d, proxy %d", u, got, cur)
		}
		if cost+1e-9 < m.Dist(graph.NodeID(u), cur) {
			t.Fatalf("query cost %v below optimal", cost)
		}
	}
	if r := d.Meter().MaintRatio(); r < 1 {
		t.Fatalf("maintenance ratio %v", r)
	}
}

func TestSinkQueriesCostThroughRoot(t *testing.T) {
	g := graph.Path(9)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 4) // root hosted at center node 4
	d, err := New(tr, m, Config{SinkQueries: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	// Query from node 1 for the object at node 0: requester is adjacent
	// to the proxy, but the sink model must pay the trip to the root.
	_, cost, err := d.Query(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost < m.Dist(1, 4)+m.Dist(4, 0) {
		t.Fatalf("sink query cost %v below root round trip", cost)
	}
	// The climb model answers the same query with cost ~1.
	d2, _ := New(tr, m, Config{})
	if err := d2.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	_, cost2, err := d2.Query(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost2 >= cost {
		t.Fatalf("climb query (%v) not cheaper than sink query (%v)", cost2, cost)
	}
}

func TestShortcutsNeverWorseThanTreeDescent(t *testing.T) {
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 0)
	plain, _ := New(tr, m, Config{})
	short, _ := New(tr, m, Config{Shortcuts: true})
	rng := rand.New(rand.NewSource(5))
	cur := graph.NodeID(17)
	if err := plain.Publish(1, cur); err != nil {
		t.Fatal(err)
	}
	if err := short.Publish(1, cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := plain.Move(1, cur); err != nil {
			t.Fatal(err)
		}
		if err := short.Move(1, cur); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < g.N(); u += 3 {
		_, cp, err := plain.Query(graph.NodeID(u), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, cs, err := short.Query(graph.NodeID(u), 1)
		if err != nil {
			t.Fatal(err)
		}
		if cs > cp+1e-9 {
			t.Fatalf("shortcut query (%v) worse than tree descent (%v) from %d", cs, cp, u)
		}
	}
}

func TestLoadByNode(t *testing.T) {
	g := graph.Grid(5, 5)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 12)
	d, _ := New(tr, m, Config{})
	for o := 0; o < 10; o++ {
		if err := d.Publish(core.ObjectID(o), graph.NodeID(o)); err != nil {
			t.Fatal(err)
		}
	}
	load := d.LoadByNode()
	// Every object's trail passes the root host.
	if load[12] < 10 {
		t.Fatalf("root load %d, want >= 10", load[12])
	}
	total := 0
	for _, c := range load {
		total += c
	}
	if total == 0 {
		t.Fatal("no load recorded")
	}
}

func TestMoveNoop(t *testing.T) {
	g := graph.Path(4)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 0)
	d, _ := New(tr, m, Config{})
	if err := d.Publish(1, 2); err != nil {
		t.Fatal(err)
	}
	before := d.Meter()
	if err := d.Move(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.Meter() != before {
		t.Fatal("no-op move changed meter")
	}
}

// The handler names why a walk stopped: a climb past the root, a trail
// ending at a leaf other than Truth's, a shortcut landing off Truth, and
// a lost trail, which the Directory reports as an error.
func TestHandlerStops(t *testing.T) {
	g := graph.Path(4)
	m := graph.NewMetric(g)
	tr := spanningTree(t, g, 0) // 0 is the root; 3 the deepest leaf
	h, err := NewHandler(tr, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewMsg(core.QueryMsg, 1, 99); err == nil {
		t.Fatal("sensor without a leaf accepted")
	}
	q, _ := h.NewMsg(core.QueryMsg, 1, 3)
	if v := h.Walk(&q); v != core.TrailLost || !q.Climbing() {
		t.Fatalf("query for an unpublished object: %v, climbing %t", v, q.Climbing())
	}
	p, _ := h.NewMsg(core.PublishMsg, 1, 3)
	if v := h.Walk(&p); v != core.Done {
		t.Fatalf("publish: %v", v)
	}
	q, _ = h.NewMsg(core.QueryMsg, 1, 0)
	q.Truth = 2
	if v := h.Walk(&q); v != core.StaleProxy || tr.Host(q.At) != 3 {
		t.Fatalf("query with a stale trail: %v at %d", v, q.At)
	}

	short, _ := NewHandler(tr, m, Config{Shortcuts: true})
	p, _ = short.NewMsg(core.PublishMsg, 1, 3)
	short.Walk(&p)
	q, _ = short.NewMsg(core.QueryMsg, 1, 0)
	q.Truth = 3
	if v := short.Step(&q); v != core.Forward || tr.Host(q.Next) != 3 {
		t.Fatalf("the root's hit did not jump to Truth's leaf: %v to %d", v, q.Next)
	}
	q.At, q.Truth = q.Next, 2 // the object moved on during the jump
	if v := short.Step(&q); v != core.TrailLost {
		t.Fatalf("shortcut off Truth: %v", v)
	}

	d, _ := New(tr, m, Config{})
	if err := d.Publish(1, 3); err != nil {
		t.Fatal(err)
	}
	i, ok := d.h.dl.lookup(tr.Leaf(2), 1)
	if !ok {
		t.Fatal("the trail misses sensor 2")
	}
	d.h.dl.remove(i)
	if _, _, err := d.Query(0, 1); err == nil {
		t.Fatal("query over a broken trail succeeded")
	}
	if err := d.CheckInvariants(); err == nil {
		t.Fatal("broken trail passed the invariant check")
	}
}

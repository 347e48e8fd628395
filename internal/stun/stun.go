// Package stun implements the STUN baseline (Kung & Vlah, WCNC 2003):
// Scalable Tracking Using Networked sensors. STUN builds its hierarchy with
// Drain-And-Balance (DAB): sensors are leaves; descending through the
// distinct detection-rate thresholds, groups of sensors connected by
// high-rate edges are merged first into balanced subtrees, so that
// frequently-crossed adjacencies meet low in the hierarchy. The resulting
// tree is traffic-conscious (it needs the detection rates up front) and its
// queries are sink-initiated: every query is shipped to the root first.
//
// Internal DAB nodes are logical; following the standard realization, each
// is hosted at the member sensor closest to the centroid of its subtree so
// that message costs are physical graph distances (see DESIGN.md).
package stun

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

// BuildTree constructs the DAB hierarchy from per-edge detection rates.
// Every rate key must be an edge of g.
func BuildTree(g *graph.Graph, m *graph.Metric, rates map[mobility.EdgeKey]float64) (*treedir.Tree, error) {
	return buildTree(g, m, rates, false)
}

// buildTree is BuildTree. With direct set, every host is found by medoid,
// even where the distance sums are exact; the tests build that way to
// check the sums against it.
func buildTree(g *graph.Graph, m *graph.Metric, rates map[mobility.EdgeKey]float64, direct bool) (*treedir.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("stun: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("stun: graph must be connected")
	}
	if k, ok := badKey(g, rates); ok {
		return nil, fmt.Errorf("stun: rate key {%d,%d} is not an edge of the graph", k.U, k.V)
	}
	b, err := newBuilder(n, m)
	if err != nil {
		return nil, err
	}
	drain := g.Edges()
	if !direct && exactSums(g, drain) {
		b.sum = make([]float64, n)
	}

	// Edges sorted by rate descending for incremental unioning.
	type ratedEdge struct {
		key  mobility.EdgeKey
		rate float64
	}
	edges := make([]ratedEdge, 0, len(rates))
	for k, r := range rates {
		if r > 0 {
			edges = append(edges, ratedEdge{key: k, rate: r})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].rate != edges[j].rate {
			return edges[i].rate > edges[j].rate
		}
		if edges[i].key.U != edges[j].key.U {
			return edges[i].key.U < edges[j].key.U
		}
		return edges[i].key.V < edges[j].key.V
	})

	// One threshold per distinct rate, descending: high-rate subsets
	// merge first.
	for i := 0; i < len(edges); {
		for w := edges[i].rate; i < len(edges) && edges[i].rate == w; i++ {
			b.union(int(edges[i].key.U), int(edges[i].key.V))
		}
		if err := b.merge(); err != nil {
			return nil, err
		}
	}
	// Final drain: remaining subtrees merge over the plain adjacency.
	for _, e := range drain {
		b.union(int(e.From), int(e.To))
	}
	if err := b.merge(); err != nil {
		return nil, err
	}
	if err := b.tr.Finalize(); err != nil {
		return nil, err
	}
	return b.tr, nil
}

// badKey returns the least rate key, by (U, V), that is not an edge of g.
func badKey(g *graph.Graph, rates map[mobility.EdgeKey]float64) (mobility.EdgeKey, bool) {
	var bad mobility.EdgeKey
	found := false
	for k := range rates {
		if !g.HasEdge(k.U, k.V) && (!found || k.U < bad.U || (k.U == bad.U && k.V < bad.V)) {
			bad, found = k, true
		}
	}
	return bad, found
}

// exactSums reports whether every distance sum a build forms is an exact
// integer. With integer weights every distance is an integer no larger
// than the total weight W, since a shortest path uses an edge at most
// once, so a sensor's sum over the n-1 others is at most (n-1)·W, and
// float64 holds every partial sum exactly while that is below 2^53.
func exactSums(g *graph.Graph, edges []graph.Edge) bool {
	if !g.IntegerWeights() {
		return false
	}
	w := 0.0
	for _, e := range edges {
		w += e.Weight
	}
	return float64(g.N()-1)*w < 1<<53
}

// builder is one DAB build in progress. Each union-find representative
// keeps the roots of the subtrees in its component; after a merge every
// component holds one root, so the components to merge next are those a
// union has joined since.
type builder struct {
	tr      *treedir.Tree
	m       *graph.Metric
	uf      *unionFind
	roots   [][]int          // by representative: its component's subtree roots
	touched []int            // representatives left by unions since the last merge
	members [][]graph.NodeID // by tree node: its subtree's sensors while it is a root
	// sum holds, by sensor, the sum of its distances to the other members
	// of its subtree, when exactSums holds; nil means each host is found
	// by medoid.
	sum []float64
}

// newBuilder adds one leaf per sensor, each its own subtree.
func newBuilder(n int, m *graph.Metric) (*builder, error) {
	b := &builder{
		tr:      treedir.NewTree(),
		m:       m,
		uf:      newUnionFind(n),
		roots:   make([][]int, n),
		members: make([][]graph.NodeID, 2*n-1),
	}
	// One backing array each for the single-element lists; the capacity
	// of 1 makes the first append copy out instead of overwriting a
	// neighbor.
	leaves, sensors := make([]int, n), make([]graph.NodeID, n)
	for u := 0; u < n; u++ {
		id, err := b.tr.AddLeaf(graph.NodeID(u))
		if err != nil {
			return nil, err
		}
		leaves[u], sensors[u] = id, graph.NodeID(u)
		b.roots[u] = leaves[u : u+1 : u+1]
		b.members[id] = sensors[u : u+1 : u+1]
	}
	return b, nil
}

// union joins the components of sensors u and v and moves the absorbed
// representative's subtree roots to the survivor.
func (b *builder) union(u, v int) {
	keep, gone, ok := b.uf.union(u, v)
	if !ok {
		return
	}
	b.roots[keep] = append(b.roots[keep], b.roots[gone]...)
	b.roots[gone] = nil
	b.touched = append(b.touched, keep)
}

// merge joins, for every component holding more than one subtree root,
// those roots into one balanced subtree: components in ascending order of
// representative, each one's roots in ascending order.
func (b *builder) merge() error {
	sort.Ints(b.touched)
	for _, c := range b.touched {
		roots := b.roots[c]
		if b.uf.parent[c] != c || len(roots) < 2 {
			continue // absorbed since, or a repeat already merged
		}
		sort.Ints(roots)
		root, err := b.balancedMerge(roots)
		if err != nil {
			return err
		}
		b.roots[c] = append(roots[:0], root)
	}
	b.touched = b.touched[:0]
	return nil
}

// balancedMerge pairs subtree roots level by level (DAB's balanced
// subtrees) until one remains, which it returns. It reuses cur.
func (b *builder) balancedMerge(cur []int) (int, error) {
	for len(cur) > 1 {
		k := 0
		for i := 0; i < len(cur); i, k = i+2, k+1 {
			if i+1 == len(cur) {
				cur[k] = cur[i] // odd one out rises a level
				continue
			}
			id, err := b.join(cur[i], cur[i+1])
			if err != nil {
				return -1, err
			}
			cur[k] = id
		}
		cur = cur[:k]
	}
	return cur[0], nil
}

// join hangs subtree roots l and r under a new internal node hosted at the
// merged set's medoid, and returns the node. l's member list dies here,
// so the new node's list extends it.
func (b *builder) join(l, r int) (int, error) {
	ml, mr := b.members[l], b.members[r]
	mem := append(ml, mr...)
	var host graph.NodeID
	if b.sum != nil {
		host = b.crossHost(ml, mr)
	} else {
		host = medoid(b.m, mem)
	}
	id, err := b.tr.AddInternal(host)
	if err != nil {
		return -1, err
	}
	if err := b.tr.SetParent(l, id); err != nil {
		return -1, err
	}
	if err := b.tr.SetParent(r, id); err != nil {
		return -1, err
	}
	b.members[id] = mem
	b.members[l], b.members[r] = nil, nil
	return id, nil
}

// crossHost adds the distances across sides l and r of a merge to each
// sensor's sum, reading a row per sensor of the smaller side, and returns
// the merged set's argmin of (sum, sensor ID). The sums are exact
// integers, so this is the sensor medoid picks from the merged list.
func (b *builder) crossHost(l, r []graph.NodeID) graph.NodeID {
	small, large := l, r
	if len(small) > len(large) {
		small, large = large, small
	}
	for _, u := range small {
		row := b.m.Row(u)
		s := 0.0
		for _, v := range large {
			s += row[v]
			b.sum[v] += row[v]
		}
		b.sum[u] += s
	}
	best := l[0]
	for _, side := range [2][]graph.NodeID{l, r} {
		for _, u := range side {
			if s, bs := b.sum[u], b.sum[best]; s < bs || (s == bs && u < best) {
				best = u
			}
		}
	}
	return best
}

// medoid returns the member minimizing the sum of distances to the others.
func medoid(m *graph.Metric, mem []graph.NodeID) graph.NodeID {
	best, bestSum := mem[0], -1.0
	for _, u := range mem {
		sum := 0.0
		row := m.Row(u)
		for _, v := range mem {
			sum += row[v]
		}
		if bestSum < 0 || sum < bestSum || (sum == bestSum && u < best) {
			best, bestSum = u, sum
		}
	}
	return best
}

// unionFind is a standard path-compressing disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union joins the sets of a and b. It returns the surviving
// representative and the absorbed one, or ok false if a and b were in one
// set already.
func (uf *unionFind) union(a, b int) (keep, gone int, ok bool) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return ra, rb, false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return ra, rb, true
}

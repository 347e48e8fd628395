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
func BuildTree(g *graph.Graph, m *graph.Metric, rates map[mobility.EdgeKey]float64) (*treedir.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("stun: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("stun: graph must be connected")
	}
	tr := treedir.NewTree()
	// One leaf per sensor; root[] tracks each sensor's current subtree root.
	leaf := make([]int, n)
	for u := 0; u < n; u++ {
		id, err := tr.AddLeaf(graph.NodeID(u))
		if err != nil {
			return nil, err
		}
		leaf[u] = id
	}
	rootOf := make([]int, n)
	copy(rootOf, leaf)
	members := make(map[int][]graph.NodeID, n)
	for u := 0; u < n; u++ {
		members[leaf[u]] = []graph.NodeID{graph.NodeID(u)}
	}

	// Distinct thresholds, descending; high-rate subsets merge first.
	seen := map[float64]bool{}
	var thresholds []float64
	for _, r := range rates {
		if r > 0 && !seen[r] {
			seen[r] = true
			thresholds = append(thresholds, r)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(thresholds)))

	uf := newUnionFind(n)
	// Edges sorted by rate descending for incremental unioning.
	type ratedEdge struct {
		key  mobility.EdgeKey
		rate float64
	}
	var edges []ratedEdge
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

	ei := 0
	for _, w := range thresholds {
		for ei < len(edges) && edges[ei].rate >= w {
			uf.union(int(edges[ei].key.U), int(edges[ei].key.V))
			ei++
		}
		if err := mergeComponents(tr, m, uf, rootOf, members); err != nil {
			return nil, err
		}
	}
	// Final drain: remaining subtrees merge over the plain adjacency.
	for _, e := range g.Edges() {
		uf.union(int(e.From), int(e.To))
	}
	if err := mergeComponents(tr, m, uf, rootOf, members); err != nil {
		return nil, err
	}
	if err := tr.Finalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// mergeComponents merges, for every union-find component holding more than
// one subtree root, those roots into a single balanced subtree.
func mergeComponents(tr *treedir.Tree, m *graph.Metric, uf *unionFind, rootOf []int, members map[int][]graph.NodeID) error {
	byComp := map[int][]int{} // component representative -> distinct roots
	inComp := map[int]bool{}
	for u := range rootOf {
		r := rootOf[u]
		if inComp[r] {
			continue
		}
		inComp[r] = true
		c := uf.find(u)
		byComp[c] = append(byComp[c], r)
	}
	comps := make([]int, 0, len(byComp))
	for c := range byComp {
		comps = append(comps, c)
	}
	sort.Ints(comps)
	for _, c := range comps {
		roots := byComp[c]
		if len(roots) < 2 {
			continue
		}
		sort.Ints(roots)
		merged, err := balancedMerge(tr, m, roots, members)
		if err != nil {
			return err
		}
		for u := range rootOf {
			for _, r := range roots {
				if rootOf[u] == r {
					rootOf[u] = merged
					break
				}
			}
		}
	}
	return nil
}

// balancedMerge pairs subtree roots level by level (DAB's balanced
// subtrees) until one remains, hosting each new internal node at the member
// sensor closest to the merged set's distance centroid.
func balancedMerge(tr *treedir.Tree, m *graph.Metric, roots []int, members map[int][]graph.NodeID) (int, error) {
	cur := append([]int(nil), roots...)
	for len(cur) > 1 {
		var next []int
		for i := 0; i < len(cur); i += 2 {
			if i+1 == len(cur) {
				next = append(next, cur[i]) // odd one out rises a level
				continue
			}
			a, b := cur[i], cur[i+1]
			mem := append(append([]graph.NodeID(nil), members[a]...), members[b]...)
			host := medoid(m, mem)
			id, err := tr.AddInternal(host)
			if err != nil {
				return -1, err
			}
			if err := tr.SetParent(a, id); err != nil {
				return -1, err
			}
			if err := tr.SetParent(b, id); err != nil {
				return -1, err
			}
			members[id] = mem
			delete(members, a)
			delete(members, b)
			next = append(next, id)
		}
		cur = next
	}
	return cur[0], nil
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

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

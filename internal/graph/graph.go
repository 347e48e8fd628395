// Package graph provides the weighted-graph model of a sensor network used
// throughout the MOT reproduction: graph nodes are sensor nodes, edges are
// adjacencies between sensors (an object can pass directly between them),
// and edge weights are normalized physical distances.
//
// The package supplies generators for the network families used in the
// paper's evaluation (grids) and in its discussion (rings, random geometric
// graphs), exact shortest-path machinery (Dijkstra single-source and cached
// all-pairs), the network diameter, and an empirical doubling-dimension
// estimate used to pick hierarchy constants.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a sensor node. Nodes are numbered 0..N-1.
type NodeID int

// Undefined is the sentinel for "no node".
const Undefined NodeID = -1

// Edge is a weighted, undirected adjacency between two sensors.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Point is the planar position of a sensor; the evaluation's grid networks
// and the Z-DAT baseline's rectangular zones need coordinates.
type Point struct {
	X, Y float64
}

// Graph is a weighted undirected graph G = (V, E, w). The zero value is an
// empty graph; use New or a generator to create one. Edge weights are
// normalized so the shortest edge has weight 1 (see Normalize).
type Graph struct {
	n   int
	adj [][]halfEdge // adjacency lists
	pos []Point      // optional geometric embedding (len 0 or n)

	nEdges int
	// nonUnit is set while some edge weight is not exactly 1. AddEdge,
	// Normalize and Clone keep it current, so a search reads in O(1)
	// whether it may run breadth-first (see distancesInto).
	nonUnit bool
}

type halfEdge struct {
	to NodeID
	w  float64
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]halfEdge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.nEdges }

// AddEdge inserts an undirected edge {u, v} with weight w. It panics on an
// out-of-range endpoint, a self loop, or a non-positive weight; duplicate
// edges are rejected with an error to keep adjacency lists canonical.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge endpoint out of range: {%d,%d} with n=%d", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: invalid edge weight %v on {%d,%d}", w, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	g.nEdges++
	g.nonUnit = g.nonUnit || w != 1
	return nil
}

// MustAddEdge is AddEdge that panics on error; for use by generators and
// tests where the input is known to be well formed.
func (g *Graph) MustAddEdge(u, v NodeID, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	// Scan the shorter list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, e := range g.adj[a] {
		if e.to == b {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v}, or (0, false) if absent.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.w, true
		}
	}
	return 0, false
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u NodeID) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors calls fn for every neighbor of u with the edge weight. It stops
// early if fn returns false.
func (g *Graph) Neighbors(u NodeID, fn func(v NodeID, w float64) bool) {
	if !g.valid(u) {
		return
	}
	for _, e := range g.adj[u] {
		if !fn(e.to, e.w) {
			return
		}
	}
}

// NeighborAt returns u's i-th neighbor, 0 ≤ i < Degree(u), in the order
// Neighbors visits them. It allocates nothing, so a random walk can draw
// its next step without building a list.
func (g *Graph) NeighborAt(u NodeID, i int) NodeID { return g.adj[u][i].to }

// NeighborIDs returns a fresh slice of u's neighbors.
func (g *Graph) NeighborIDs(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	out := make([]NodeID, 0, len(g.adj[u]))
	for _, e := range g.adj[u] {
		out = append(out, e.to)
	}
	return out
}

// Edges returns all undirected edges once each (From < To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nEdges)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if NodeID(u) < e.to {
				out = append(out, Edge{From: NodeID(u), To: e.to, Weight: e.w})
			}
		}
	}
	return out
}

// SetPositions attaches a geometric embedding; len(pos) must equal N().
func (g *Graph) SetPositions(pos []Point) error {
	if len(pos) != g.n {
		return fmt.Errorf("graph: %d positions for %d nodes", len(pos), g.n)
	}
	g.pos = append([]Point(nil), pos...)
	return nil
}

// HasPositions reports whether a geometric embedding is attached.
func (g *Graph) HasPositions() bool { return len(g.pos) == g.n && g.n > 0 }

// Position returns the planar position of u; it panics if the graph has no
// embedding (callers that need coordinates, like Z-DAT zoning, require one).
func (g *Graph) Position(u NodeID) Point {
	if !g.HasPositions() {
		panic("graph: no geometric embedding attached")
	}
	return g.pos[u]
}

// Normalize rescales all edge weights so the minimum edge weight is exactly
// 1, as the paper's model requires (§2.1); positions are scaled to match.
// It returns the scale factor applied (1 if no edges).
func (g *Graph) Normalize() float64 {
	minW := math.Inf(1)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if e.w < minW {
				minW = e.w
			}
		}
	}
	if math.IsInf(minW, 1) || minW == 1 {
		return 1
	}
	scale := 1 / minW
	g.nonUnit = false
	for u := 0; u < g.n; u++ {
		for i := range g.adj[u] {
			g.adj[u][i].w *= scale
			g.nonUnit = g.nonUnit || g.adj[u][i].w != 1
		}
	}
	for i := range g.pos {
		g.pos[i].X *= scale
		g.pos[i].Y *= scale
	}
	return scale
}

// IntegerWeights reports whether every edge weight is an integer and all
// weights sum to less than 2^53. Every path length a shortest-path search
// forms is then an integer below 2^53, which float64 holds exactly, so a
// distance has the same bits whichever end a search starts from and in
// whatever order it adds the edges. Grids and rings qualify; Euclidean
// weights, as on random geometric graphs, generally do not.
func (g *Graph) IntegerWeights() bool {
	total, ok := g.integerWeightSum()
	return ok && total < 1<<53
}

// integerWeightSum returns the sum of all edge weights and whether every
// weight is an integer. The sum of integers is exact while it stays below
// 2^53, and once it reaches 2^53 rounding keeps it there, so for k ≤ 53
// the result is below 2^k exactly when the true sum is.
func (g *Graph) integerWeightSum() (float64, bool) {
	total := 0.0
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.w != math.Trunc(e.w) {
				return 0, false
			}
			if NodeID(u) < e.to {
				total += e.w
			}
		}
	}
	return total, true
}

// Connected reports whether the graph is connected (true for the empty and
// the single-node graph).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == g.n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, adj: make([][]halfEdge, g.n), nEdges: g.nEdges, nonUnit: g.nonUnit}
	for u := range g.adj {
		c.adj[u] = append([]halfEdge(nil), g.adj[u]...)
	}
	if g.pos != nil {
		c.pos = append([]Point(nil), g.pos...)
	}
	return c
}

func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.n }

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d geometric=%t}", g.n, g.nEdges, g.HasPositions())
}

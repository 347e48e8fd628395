package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/runtime/track"
)

// Inf is the distance reported between disconnected nodes.
var Inf = math.Inf(1)

// distHeap is a manual binary min-heap of (node, distance) pairs for
// Dijkstra. It deliberately avoids container/heap: the interface-based
// Push/Pop box every item, and the boxing dominates allocation counts
// when Precompute runs Dijkstra from every source.
type distItem struct {
	node NodeID
	d    float64
}

type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].d <= s[i].d {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && s[l].d < s[small].d {
			small = l
		}
		if r := 2*i + 2; r < n && s[r].d < s[small].d {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// SSSP holds single-source shortest-path results from one source node.
type SSSP struct {
	Source NodeID
	Dist   []float64
	Parent []NodeID // Parent[v] is the predecessor of v on a shortest path; Undefined at the source and for unreachable nodes
}

// Dijkstra computes single-source shortest paths from src using a binary
// heap (lazy deletion). It panics if src is out of range.
func (g *Graph) Dijkstra(src NodeID) *SSSP {
	if !g.valid(src) {
		panic("graph: Dijkstra source out of range")
	}
	dist := make([]float64, g.n)
	parent := make([]NodeID, g.n)
	h := make(distHeap, 0, 64)
	g.dijkstraInto(src, dist, parent, &h)
	return &SSSP{Source: src, Dist: dist, Parent: parent}
}

// dijkstraInto is the allocation-free core of Dijkstra: it writes
// single-source distances from src into dist (length n), optionally
// records predecessors into parent, and reuses h as heap scratch.
// Precompute calls it once per missing source with the same scratch
// buffers so an all-pairs fill allocates only the result table.
func (g *Graph) dijkstraInto(src NodeID, dist []float64, parent []NodeID, h *distHeap) {
	for i := range dist {
		dist[i] = Inf
	}
	if parent != nil {
		for i := range parent {
			parent[i] = Undefined
		}
	}
	dist[src] = 0
	*h = (*h)[:0]
	h.push(distItem{node: src, d: 0})
	for len(*h) > 0 {
		it := h.pop()
		u := it.node
		if it.d > dist[u] {
			continue // stale entry
		}
		for _, e := range g.adj[u] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				if parent != nil {
					parent[e.to] = u
				}
				h.push(distItem{node: e.to, d: nd})
			}
		}
	}
}

// PairSearch answers exact point-to-point distances: a Dijkstra from u
// that stops as soon as v settles. Its scratch is reused across calls
// and restored through the touched list, so a search pays for the nodes
// it reaches, never for an O(n) reset, and a warmed search allocates
// nothing. This is what keeps sampled exact audits affordable at sizes
// where an n×n table, or even a cache of full rows, is not.
//
// Dist(u, v) equals g.Dijkstra(u).Dist[v] bit for bit: labels pop in
// nondecreasing order and fl(d+w) ≥ d for w ≥ 0, so a popped label never
// changes, and until v pops the early-exit run makes exactly the pops
// and relaxations of the full one.
//
// A PairSearch is not safe for concurrent use.
type PairSearch struct {
	g  *Graph
	sc *nearScratch
}

// NewPairSearch returns a point-to-point search over g, with O(n)
// scratch. The graph must not be mutated afterwards.
func NewPairSearch(g *Graph) *PairSearch {
	return &PairSearch{g: g, sc: newNearScratch(g.N())}
}

// Dist returns the exact shortest-path distance from u to v: 0 when
// u == v and +Inf when v is unreachable. It panics on out-of-range
// nodes, like Metric.Dist.
//
//motlint:hotpath
func (p *PairSearch) Dist(u, v NodeID) float64 {
	g, sc := p.g, p.sc
	if !g.valid(u) || !g.valid(v) {
		panic(fmt.Sprintf("graph: PairSearch.Dist(%d, %d) out of range for n=%d", u, v, g.n))
	}
	if u == v {
		return 0
	}
	dist := sc.dist
	sc.touched = sc.touched[:0]
	sc.h = sc.h[:0]
	dist[u] = 0
	//motlint:ignore hotalloc reused scratch grows once to the largest search
	sc.touched = append(sc.touched, u)
	//motlint:ignore hotalloc reused heap grows once to the largest search
	sc.h.push(distItem{node: u, d: 0})
	d := Inf
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if it.d > dist[it.node] {
			continue // stale entry
		}
		if it.node == v {
			d = it.d
			break
		}
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				if dist[e.to] == Inf {
					//motlint:ignore hotalloc reused scratch grows once to the largest search
					sc.touched = append(sc.touched, e.to)
				}
				dist[e.to] = nd
				//motlint:ignore hotalloc reused heap grows once to the largest search
				sc.h.push(distItem{node: e.to, d: nd})
			}
		}
	}
	for _, x := range sc.touched {
		dist[x] = Inf
	}
	return d
}

// PathTo reconstructs the shortest path from the SSSP source to v, inclusive
// of both endpoints. It returns nil if v is unreachable.
func (s *SSSP) PathTo(v NodeID) []NodeID {
	if int(v) < 0 || int(v) >= len(s.Dist) || math.IsInf(s.Dist[v], 1) {
		return nil
	}
	var rev []NodeID
	for u := v; u != Undefined; u = s.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// flatTable is the frozen all-pairs table: row-major distances plus
// lazily-computed per-node eccentricities and the diameter. The distance
// slab is fully written before the table is published through an atomic
// pointer, and never written again, so readers need no locks. ecc and
// diam are computed at most once, guarded by once.
type flatTable struct {
	n    int
	d    []float64 // row-major, length n*n
	once sync.Once
	ecc  []float64
	diam float64
}

// row returns the shared distance row of u as a capped subslice of the
// slab, so an append by a confused caller cannot clobber the next row.
//
//motlint:hotpath
func (t *flatTable) row(u NodeID) []float64 {
	off := int(u) * t.n
	return t.d[off : off+t.n : off+t.n]
}

// fill computes eccentricities and the diameter once. Disconnected pairs
// carry Inf distances, so a disconnected graph yields Inf here too.
func (t *flatTable) fill() {
	t.once.Do(func() {
		t.ecc = make([]float64, t.n)
		for u := 0; u < t.n; u++ {
			e := 0.0
			for _, d := range t.d[u*t.n : (u+1)*t.n] {
				if d > e {
					e = d
				}
			}
			t.ecc[u] = e
			if e > t.diam {
				t.diam = e
			}
		}
	})
}

// Metric provides O(1) shortest-path distance queries over a graph by
// caching single-source results on demand. It is safe for concurrent use.
// For the experiment sizes in the paper (≤1024 nodes) the full all-pairs
// table fits comfortably in memory.
//
// A Metric has two phases. While rows are partially cached, reads go
// through an RWMutex-guarded map. Once every source row exists — either
// because Precompute ran or because lazy use touched the last row — the
// table freezes into one row-major []float64 published via an atomic
// pointer, and every subsequent Dist/Row/Ball/Diameter read is lock-free
// and allocation-free. The frozen table is immutable, which is what makes
// sharing one Metric across concurrent sweep cells safe.
type Metric struct {
	g    *Graph
	mu   sync.RWMutex
	by   map[NodeID][]float64
	flat atomic.Pointer[flatTable]
}

// NewMetric returns a lazy all-pairs shortest-path oracle for g. The graph
// must not be mutated afterwards.
func NewMetric(g *Graph) *Metric {
	return &Metric{g: g, by: make(map[NodeID][]float64)}
}

// Graph returns the underlying graph.
func (m *Metric) Graph() *Graph { return m.g }

// Frozen reports whether the flat all-pairs table has been published.
func (m *Metric) Frozen() bool { return m.flat.Load() != nil }

// Dist returns the shortest-path distance between u and v (Inf if
// disconnected). It panics if either node is out of range — including
// when u == v, so Dist(-5, -5) fails as loudly as Dist(-5, 0).
//
//motlint:hotpath
func (m *Metric) Dist(u, v NodeID) float64 {
	if !m.g.valid(u) || !m.g.valid(v) {
		panic(fmt.Sprintf("graph: Dist(%d, %d) out of range for n=%d", u, v, m.g.n))
	}
	if t := m.flat.Load(); t != nil {
		return t.d[int(u)*t.n+int(v)]
	}
	if u == v {
		return 0
	}
	return m.Row(u)[v]
}

// Row returns the full distance row from u. The returned slice is shared;
// callers must not modify it. Computing the final missing row freezes the
// metric (see the type comment), after which rows alias the flat table.
// Only the frozen and cached paths are hot; the first-touch fill below
// carries reasoned hotalloc waivers because it runs once per row.
//
//motlint:hotpath
func (m *Metric) Row(u NodeID) []float64 {
	if !m.g.valid(u) {
		panic(fmt.Sprintf("graph: Row(%d) out of range for n=%d", u, m.g.n))
	}
	if t := m.flat.Load(); t != nil {
		return t.row(u)
	}
	m.mu.RLock()
	row, ok := m.by[u]
	m.mu.RUnlock()
	if ok {
		return row
	}
	//motlint:ignore hotalloc lazy first-touch fill runs once per row; frozen reads never reach it
	res := m.g.Dijkstra(u)
	m.mu.Lock()
	if prev, ok := m.by[u]; ok { // racing fill; keep first
		m.mu.Unlock()
		return prev
	}
	m.by[u] = res.Dist
	full := len(m.by) == m.g.n
	m.mu.Unlock()
	if full {
		//motlint:ignore hotalloc one-time freeze when the last row lands
		m.Precompute(1) // every row cached: copy-only freeze, no goroutines
		return m.Row(u)
	}
	return res.Dist
}

// Precompute fills every missing source row and freezes the metric into
// the flat table; afterwards all reads are lock-free. par bounds the
// worker goroutines; par <= 0 means min(GOMAXPROCS, missing rows), and
// any par is clamped to the number of missing rows, so a fully cached
// metric (or a repeated Precompute) spawns no goroutines at all.
func (m *Metric) Precompute(par int) {
	if m.flat.Load() != nil {
		return
	}
	n := m.g.n
	flat := make([]float64, n*n)
	missing := make([]NodeID, 0, n)
	m.mu.RLock()
	for u := 0; u < n; u++ {
		if row, ok := m.by[NodeID(u)]; ok {
			copy(flat[u*n:(u+1)*n], row)
		} else {
			missing = append(missing, NodeID(u))
		}
	}
	m.mu.RUnlock()
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(missing) {
		par = len(missing)
	}
	switch {
	case len(missing) == 0:
		// copy-only freeze
	case par <= 1:
		h := make(distHeap, 0, 64)
		for _, u := range missing {
			m.g.dijkstraInto(u, flat[int(u)*n:(int(u)+1)*n], nil, &h)
		}
	default:
		jobs := make(chan NodeID)
		var pool track.Group
		for w := 0; w < par; w++ {
			pool.Go(func() {
				h := make(distHeap, 0, 64) // per-worker scratch, reused across sources
				for u := range jobs {
					m.g.dijkstraInto(u, flat[int(u)*n:(int(u)+1)*n], nil, &h)
				}
			})
		}
		for _, u := range missing {
			jobs <- u
		}
		close(jobs)
		pool.Wait()
	}
	// Racing Precomputes build identical tables (Dijkstra is deterministic
	// and cached rows are immutable); CompareAndSwap keeps the first.
	if m.flat.CompareAndSwap(nil, &flatTable{n: n, d: flat}) {
		frozenTables.Add(1)
	}
}

// frozenTables counts flat n×n tables published process-wide. Scale tests
// assert the delta stays zero across an oracle-mode run: the whole point
// of the oracle is that no quadratic table is ever materialized.
var frozenTables atomic.Int64

// FrozenTableCount returns how many flat all-pairs tables have been
// published process-wide since start.
func FrozenTableCount() int64 { return frozenTables.Load() }

// freeze returns the flat table, forcing a full Precompute if needed.
func (m *Metric) freeze() *flatTable {
	if t := m.flat.Load(); t != nil {
		return t
	}
	m.Precompute(0)
	return m.flat.Load()
}

// Diameter returns the maximum finite shortest-path distance over all node
// pairs; 0 for graphs with fewer than two nodes. It returns Inf if the
// graph is disconnected. The first call freezes the metric and caches the
// result; later calls are O(1).
func (m *Metric) Diameter() float64 {
	if m.g.n < 2 {
		return 0
	}
	t := m.freeze()
	t.fill()
	return t.diam
}

// Eccentricity returns max_v dist(u, v). On a frozen metric the value is
// cached (computed alongside the diameter).
func (m *Metric) Eccentricity(u NodeID) float64 {
	if t := m.flat.Load(); t != nil {
		t.fill()
		return t.ecc[u]
	}
	row := m.Row(u)
	e := 0.0
	for _, d := range row {
		if d > e {
			e = d
		}
	}
	return e
}

// Center returns a node with minimum eccentricity (a natural sink/root).
func (m *Metric) Center() NodeID {
	best, bestE := NodeID(0), math.Inf(1)
	for u := 0; u < m.g.n; u++ {
		if e := m.Eccentricity(NodeID(u)); e < bestE {
			best, bestE = NodeID(u), e
		}
	}
	return best
}

// Scan visits every node within distance r of u (including u) with its
// exact distance, in ascending node order. On a Metric this is a row
// scan: lazy use computes (and may freeze) the row; large-n callers that
// must avoid the n×n table use an *Oracle instead. Unreachable nodes
// are skipped, so a ball never leaves u's component, even at r = +Inf.
func (m *Metric) Scan(u NodeID, r float64, visit func(Neighbor)) {
	for v, d := range m.Row(u) {
		if d <= r && d < Inf {
			visit(Neighbor{Node: NodeID(v), D: d})
		}
	}
}

// BallSize returns |{v : dist(u,v) <= r}| including u itself.
//
//motlint:hotpath
func (m *Metric) BallSize(u NodeID, r float64) int {
	c := 0
	m.Scan(u, r, func(Neighbor) { c++ })
	return c
}

// Ball returns the nodes within distance r of u (including u),
// ascending.
func (m *Metric) Ball(u NodeID, r float64) []NodeID {
	var out []NodeID
	m.Scan(u, r, func(nb Neighbor) { out = append(out, nb.Node) })
	return out
}

// Near returns every node within distance r of u (including u) with its
// exact distance, sorted by ascending node ID (Scan's row order).
func (m *Metric) Near(u NodeID, r float64) []Neighbor {
	var out []Neighbor
	m.Scan(u, r, func(nb Neighbor) { out = append(out, nb) })
	return out
}

// Stretch returns 1: the Metric is exact.
func (m *Metric) Stretch() float64 { return 1 }

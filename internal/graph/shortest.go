package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/runtime/track"
)

// Inf is the distance reported between disconnected nodes.
var Inf = math.Inf(1)

// distHeap is a manual binary min-heap of (node, distance) pairs for
// Dijkstra. It deliberately avoids container/heap: the interface-based
// Push/Pop box every item, and the boxing dominates allocation counts
// when Precompute runs a Dijkstra from every source of a weighted graph.
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

// distancesInto writes the distances from src to every node into dist
// (length n), +Inf for unreachable nodes, reusing sc's queue and heap
// (it leaves sc.dist alone). Precompute, the lazy Row fill and the
// oracle's landmarks call it, so an all-pairs fill allocates only its
// table. When every weight is 1 it is a breadth-first search (Dial's
// bucket queue with one bucket: Dial, CACM 12(11), 1969), otherwise a
// Dijkstra. On unit weights a node's least path weight is its fewest
// hops, a small integer that float64 adds exactly, so both give the
// same bits. Only predecessors could differ, which is why Dijkstra,
// whose PathTo picks routes, keeps the heap.
// Each buffer is sized once per scratch, where appends would regrow it
// step by step: the queue can come to hold every node.
func (g *Graph) distancesInto(src NodeID, dist []float64, sc *nearScratch) {
	if g.nonUnit {
		sc.h = slices.Grow(sc.h, 64)
		g.dijkstraInto(src, dist, nil, &sc.h)
		return
	}
	for i := range dist {
		dist[i] = Inf
	}
	sc.touched = g.bfsInto(src, Inf, dist, slices.Grow(sc.touched[:0], g.n))
}

// bfsInto is the breadth-first search of a unit-weight graph: it labels
// src and every node within distance r of it in dist, and appends them
// to queue in discovery order, which is nondecreasing distance. dist
// must be +Inf at every node the search can reach. It returns the
// extended queue.
func (g *Graph) bfsInto(src NodeID, r float64, dist []float64, queue []NodeID) []NodeID {
	dist[src] = 0
	//motlint:ignore hotalloc reused queue grows once to the largest search
	queue = append(queue, src)
	for i := len(queue) - 1; i < len(queue); i++ {
		u := queue[i]
		nd := dist[u] + 1
		if !(nd <= r) {
			break // every later node is at least as far as u
		}
		for _, e := range g.adj[u] {
			if dist[e.to] == Inf {
				dist[e.to] = nd
				//motlint:ignore hotalloc reused queue grows once to the largest search
				queue = append(queue, e.to)
			}
		}
	}
	return queue
}

// PairSearch answers exact point-to-point distances with an A* search
// from u that stops as soon as v settles. Its heap key is g + h(x),
// where g is x's label from u and h(x) a lower bound on d(x, v). On a
// plain search (NewPairSearch) h ≡ 0 and the search is Dijkstra. On an
// oracle's search (Oracle.PairSearch) h is the landmark bound
// max_i |d(l_i, x) − d(l_i, v)| (ALT; Goldberg & Harrelson, SODA 2005),
// read from the oracle's node-major landmark table, and a pair in
// different components answers +Inf from the component labels. Its
// scratch is reused across calls and restored through the touched list,
// so a search pays for the nodes it reaches, never for an O(n) reset,
// and a warmed search allocates nothing. This is what keeps sampled
// exact audits affordable at sizes where an n×n table, or even a cache
// of full rows, is not.
//
// Dist(u, v) equals g.Dijkstra(u).Dist[v] bit for bit. With h ≡ 0,
// labels pop in nondecreasing order and fl(d+w) ≥ d for w ≥ 0, so a
// popped label never changes, and every node with a smaller label pops
// first. Induction on the labels in increasing order then shows that no
// label depends on the order in which equal keys pop (this heap and
// Dijkstra's break ties differently), so the early-exit run pops v with
// the label the full run ends with. The bound is used only when every
// weight is an integer and the weights sum below 2^52. Every label,
// landmark distance and bound is then an integer no larger than that
// sum, and every key at most twice it, all below 2^53, so the search
// adds exactly. On an undirected graph the bound is consistent,
// h(x) ≤ w(x,y) + h(y) by the triangle inequality, and h(v) = 0, so A*
// pops v at its exact distance, which is also what Dijkstra computes on
// such weights. Among equal keys the item with the larger g, and so the
// smaller bound, pops first; on grids, where many keys tie, this settles
// several times fewer nodes.
//
// A PairSearch is not safe for concurrent use; searches of one oracle
// share its tables read-only, so each goroutine needs only its own.
type PairSearch struct {
	g       *Graph
	dist    []float64 // all-+Inf between searches
	touched []NodeID
	h       pairHeap

	// Set by Oracle.PairSearch: comp answers cross-component pairs, and
	// ltab (nil when the bound is off) is the oracle's landmark table
	// with nl entries per node.
	comp []int32
	ltab []float64
	nl   int
}

// NewPairSearch returns a point-to-point search over g with no bound
// (Dijkstra), with O(n) scratch. The graph must not be mutated
// afterwards.
func NewPairSearch(g *Graph) *PairSearch {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = Inf
	}
	return &PairSearch{g: g, dist: dist, h: make(pairHeap, 0, 64)}
}

// Dist returns the exact shortest-path distance from u to v: 0 when
// u == v and +Inf when v is unreachable. It panics on out-of-range
// nodes, like Metric.Dist.
//
//motlint:hotpath
func (p *PairSearch) Dist(u, v NodeID) float64 {
	g, dist := p.g, p.dist
	if !g.valid(u) || !g.valid(v) {
		panic(fmt.Sprintf("graph: PairSearch.Dist(%d, %d) out of range for n=%d", u, v, g.n))
	}
	if u == v {
		return 0
	}
	if p.comp != nil && p.comp[u] != p.comp[v] {
		return Inf
	}
	var lv []float64 // v's landmark distances; nil when the bound is off
	if p.ltab != nil {
		lv = p.ltab[int(v)*p.nl : int(v)*p.nl+p.nl]
	}
	p.touched = p.touched[:0]
	p.h = p.h[:0]
	dist[u] = 0
	//motlint:ignore hotalloc reused scratch grows once to the largest search
	p.touched = append(p.touched, u)
	//motlint:ignore hotalloc reused heap grows once to the largest search
	p.h.push(pairItem{node: u, key: p.bound(u, lv), g: 0})
	d := Inf
	for len(p.h) > 0 {
		it := p.h.pop()
		if it.g > dist[it.node] {
			continue // stale entry
		}
		if it.node == v {
			d = it.g
			break
		}
		for _, e := range g.adj[it.node] {
			if nd := it.g + e.w; nd < dist[e.to] {
				if dist[e.to] == Inf {
					//motlint:ignore hotalloc reused scratch grows once to the largest search
					p.touched = append(p.touched, e.to)
				}
				dist[e.to] = nd
				//motlint:ignore hotalloc reused heap grows once to the largest search
				p.h.push(pairItem{node: e.to, key: nd + p.bound(e.to, lv), g: nd})
			}
		}
	}
	for _, x := range p.touched {
		dist[x] = Inf
	}
	return d
}

// bound returns the landmark lower bound on d(x, v), given v's landmark
// distances lv: max_i |d(l_i, x) − d(l_i, v)|, or 0 when lv is nil. A
// landmark in another component is +Inf at v, and at x too, since x
// shares v's component: the difference is NaN, and NaN > h is false, so
// such landmarks never raise the bound. (Go's max would propagate the
// NaN; keep the comparison.)
//
//motlint:hotpath
func (p *PairSearch) bound(x NodeID, lv []float64) float64 {
	if lv == nil {
		return 0
	}
	lx := p.ltab[int(x)*p.nl : int(x)*p.nl+len(lv)]
	h := 0.0
	for i, dv := range lv {
		if d := math.Abs(lx[i] - dv); d > h {
			h = d
		}
	}
	return h
}

// pairItem is one A* heap entry: node x with key g + h(x) and label g.
type pairItem struct {
	node   NodeID
	key, g float64
}

// before orders the A* heap: smaller key first, and among equal keys the
// larger g, whose bound to the target is the smaller.
func (a pairItem) before(b pairItem) bool {
	return a.key < b.key || a.key == b.key && a.g > b.g
}

// pairHeap is PairSearch's binary min-heap. It is separate from distHeap
// so the ball and sketch searches keep their narrower items, and it moves
// a hole instead of swapping.
type pairHeap []pairItem

func (h *pairHeap) push(it pairItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
}

// pop removes the first item. It walks the hole at the root down to a
// leaf along the earlier child, one comparison per level, then sifts the
// last item up from there. The last item usually belongs near the
// bottom, so this beats the two comparisons per level of a plain sift
// down, which matters on grids, where keys often tie and each tie costs
// a second comparison.
func (h *pairHeap) pop() pairItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		s[i] = s[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !last.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = last
	return top
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
	row = make([]float64, m.g.n)
	var sc nearScratch
	//motlint:ignore hotalloc lazy first-touch fill runs once per row; frozen reads never reach it
	m.g.distancesInto(u, row, &sc)
	m.mu.Lock()
	if prev, ok := m.by[u]; ok { // racing fill; keep first
		m.mu.Unlock()
		return prev
	}
	m.by[u] = row
	full := len(m.by) == m.g.n
	m.mu.Unlock()
	if full {
		//motlint:ignore hotalloc one-time freeze when the last row lands
		m.Precompute(1) // every row cached: copy-only freeze, no goroutines
		return m.Row(u)
	}
	return row
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
		var sc nearScratch
		for _, u := range missing {
			m.g.distancesInto(u, flat[int(u)*n:(int(u)+1)*n], &sc)
		}
	default:
		jobs := make(chan NodeID)
		var pool track.Group
		for w := 0; w < par; w++ {
			pool.Go(func() {
				var sc nearScratch // per-worker scratch, reused across sources
				for u := range jobs {
					m.g.distancesInto(u, flat[int(u)*n:(int(u)+1)*n], &sc)
				}
			})
		}
		for _, u := range missing {
			jobs <- u
		}
		close(jobs)
		pool.Wait()
	}
	// Racing Precomputes build identical tables (the searches are
	// deterministic and cached rows are immutable); CompareAndSwap keeps
	// the first.
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

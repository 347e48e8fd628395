package graph

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/runtime/track"
)

// DistanceOracle is the routing-grade distance interface the tracking
// structures are built against. Two implementations exist: the exact
// *Metric (lazy Dijkstra rows that freeze into a flat all-pairs table,
// stretch 1) and the sub-quadratic *Oracle (landmark + ball sketches with
// a build-time-computed stretch bound and O(n·(L+k)) memory).
//
// The contract every implementation must honor:
//
//   - Dist is symmetric, zero on the diagonal, +Inf across connected
//     components, and sandwiched by exact ≤ Dist ≤ Stretch()·exact.
//   - Near, Ball, BallSize, and Scan are exact (never estimated): the
//     MOT algorithm needs only hierarchy- and de Bruijn-local distances,
//     and those local queries stay exact in every implementation; only
//     far-pair Dist may be approximate.
//   - Near returns all v with d(u,v) ≤ r in ascending node order, with
//     exact distances. Scan visits the same nodes with the same
//     distances, each once, in an order the implementation chooses; it
//     builds no list, so a caller that folds the ball pays for no sort.
//   - A ball never leaves u's component: at r = +Inf, Near, Ball,
//     BallSize, and Scan cover u's component and nothing else.
//   - Diameter is exact on *Metric; approximate implementations must
//     return an upper bound within a factor 2 of the true diameter (+Inf
//     for disconnected graphs either way), so callers using it only in
//     convergence guards never fail early.
//
// Implementations must be safe for concurrent use after construction.
type DistanceOracle interface {
	// Graph returns the underlying graph.
	Graph() *Graph
	// Dist returns the (possibly estimated) shortest-path distance.
	Dist(u, v NodeID) float64
	// Near returns every node within distance r of u (including u) with
	// its exact distance, sorted by ascending node ID.
	Near(u NodeID, r float64) []Neighbor
	// Ball returns the nodes within distance r of u (including u),
	// ascending.
	Ball(u NodeID, r float64) []NodeID
	// BallSize returns |{v : dist(u,v) <= r}| including u itself.
	BallSize(u NodeID, r float64) int
	// Scan calls visit for every node within distance r of u (including
	// u) with its exact distance, in no particular order.
	Scan(u NodeID, r float64, visit func(Neighbor))
	// Diameter returns the graph diameter (exact or a ≤2× upper bound —
	// see the interface comment), +Inf when disconnected.
	Diameter() float64
	// Stretch returns the multiplicative bound S with
	// exact ≤ Dist ≤ S·exact for every finite pair; 1 for exact oracles.
	Stretch() float64
}

// Neighbor pairs a node with its exact distance from a query center.
type Neighbor struct {
	Node NodeID
	D    float64
}

// OracleConfig parameterizes the landmark/ball sketch oracle.
type OracleConfig struct {
	// Landmarks is the total landmark budget L (full Dijkstra rows kept,
	// O(L·n) floats). <=0 derives 4·ceil(log2 n)+8, clamped to n. Every
	// connected component receives at least one landmark, so same-
	// component estimates are always finite.
	Landmarks int
	// BallK is the per-node sketch size k: each node stores exact
	// distances to its k nearest nodes (O(k·n) entries). <=0 derives
	// 8·ceil(log2 n)+16, clamped to n.
	BallK int
	// Seed salts the first landmark choice per component; the remaining
	// landmarks follow a deterministic farthest-point traversal, so equal
	// (graph, config) builds are identical at any worker count.
	Seed int64
	// Workers bounds the goroutines building ball sketches. <=0 means
	// GOMAXPROCS. The result is byte-identical for every value.
	Workers int
}

func (c *OracleConfig) fill(n int) {
	lg := 0
	for s := 1; s < n; s <<= 1 {
		lg++
	}
	if c.Landmarks <= 0 {
		c.Landmarks = 4*lg + 8
	}
	if c.BallK <= 0 {
		c.BallK = 8*lg + 16
	}
	if c.Landmarks > n {
		c.Landmarks = n
	}
	if c.BallK > n {
		c.BallK = n
	}
	if c.BallK < 2 && n >= 2 {
		c.BallK = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Oracle is the sub-quadratic distance oracle: per-node ball sketches
// (exact distances to the k nearest nodes) answer near queries and
// near-pair Dist exactly; seeded farthest-point landmarks (full Dijkstra
// rows) answer far-pair Dist with the triangle upper bound
// min_l d(u,l)+d(l,v). The published stretch bound is computed at build
// time from the cover and sketch radii (see Stretch) — no n×n table is
// ever materialized, and memory is O(n·(L+k)).
//
// An Oracle is immutable after NewOracle and safe for concurrent use.
type Oracle struct {
	g   *Graph
	cfg OracleConfig

	comp      []int32  // connected component index per node
	landmarks []NodeID // selection order
	lrows     [][]float64
	rland     []float64 // d(u, nearest landmark)

	sketch  [][]Neighbor // per node, k nearest sorted by ascending node ID
	rsketch []float64    // guaranteed-exact radius: d(u,v) < rsketch[u] ⇒ v in sketch[u]; +Inf when the sketch holds u's whole component

	stretch float64

	// scratch pools the fallback Dijkstra state for Near queries beyond
	// the sketch radius: dist arrays stay all-+Inf between uses (searches
	// restore only the entries they touched), so a pooled query pays for
	// its output, not for an O(n) reset.
	scratch sync.Pool

	diamOnce sync.Once
	diam     float64
}

// nearScratch is the reusable state of one truncated Dijkstra: dist is
// all-+Inf between searches, and each search restores only the entries
// it touched, so a search costs its output, not an O(n) reset.
type nearScratch struct {
	dist    []float64
	touched []NodeID
	h       distHeap
}

func newNearScratch(n int) *nearScratch {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	return &nearScratch{dist: dist, h: make(distHeap, 0, 64)}
}

// NewOracle builds the sketch oracle over g. The graph must not be
// mutated afterwards.
func NewOracle(g *Graph, cfg OracleConfig) *Oracle {
	n := g.N()
	o := &Oracle{g: g, cfg: cfg}
	o.cfg.fill(n)
	if n == 0 {
		o.stretch = 1
		return o
	}
	o.scratch.New = func() any { return newNearScratch(n) }
	o.findComponents()
	o.pickLandmarks()
	o.buildSketches()
	o.computeStretch()
	return o
}

// findComponents labels connected components in node-scan order.
func (o *Oracle) findComponents() {
	n := o.g.N()
	o.comp = make([]int32, n)
	for i := range o.comp {
		o.comp[i] = -1
	}
	next := int32(0)
	var stack []NodeID
	for s := 0; s < n; s++ {
		if o.comp[s] >= 0 {
			continue
		}
		o.comp[s] = next
		stack = append(stack[:0], NodeID(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range o.g.adj[u] {
				if o.comp[e.to] < 0 {
					o.comp[e.to] = next
					stack = append(stack, e.to)
				}
			}
		}
		next++
	}
}

// pickLandmarks selects landmarks per component — a seeded first pick,
// then deterministic farthest-point traversal (ties broken by smallest
// node ID) — and stores one full Dijkstra row per landmark.
func (o *Oracle) pickLandmarks() {
	n := o.g.N()
	nComp := 0
	for _, c := range o.comp {
		if int(c) >= nComp {
			nComp = int(c) + 1
		}
	}
	members := make([][]NodeID, nComp)
	for u := 0; u < n; u++ {
		c := o.comp[u]
		members[c] = append(members[c], NodeID(u))
	}

	minD := make([]float64, n)
	for i := range minD {
		minD[i] = Inf
	}
	h := make(distHeap, 0, 64)
	addLandmark := func(l NodeID) {
		row := make([]float64, n)
		o.g.dijkstraInto(l, row, nil, &h)
		o.landmarks = append(o.landmarks, l)
		o.lrows = append(o.lrows, row)
		for _, u := range members[o.comp[l]] {
			if row[u] < minD[u] {
				minD[u] = row[u]
			}
		}
	}

	for c := 0; c < nComp; c++ {
		mem := members[c]
		// Budget proportional to component size, at least one.
		budget := o.cfg.Landmarks * len(mem) / n
		if budget < 1 {
			budget = 1
		}
		if budget > len(mem) {
			budget = len(mem)
		}
		first := mem[splitmix64(uint64(o.cfg.Seed)^uint64(c)*0x9e3779b97f4a7c15)%uint64(len(mem))]
		addLandmark(first)
		for i := 1; i < budget; i++ {
			far, farD := Undefined, -1.0
			for _, u := range mem {
				if d := minD[u]; d > farD {
					far, farD = u, d
				}
			}
			if farD <= 0 {
				break // component fully covered by existing landmarks
			}
			addLandmark(far)
		}
	}
	o.rland = minD
}

// buildSketches computes each node's k-nearest sketch with truncated
// Dijkstras, striped across workers (each output slot is written by
// exactly one worker, so any worker count yields identical sketches).
func (o *Oracle) buildSketches() {
	n := o.g.N()
	o.sketch = make([][]Neighbor, n)
	o.rsketch = make([]float64, n)
	workers := o.cfg.Workers
	if workers > n {
		workers = n
	}
	var pool track.Group
	for w := 0; w < workers; w++ {
		w := w
		pool.Go(func() {
			sc := newNearScratch(n)
			for u := w; u < n; u += workers {
				sk, r := o.g.nearestInto(NodeID(u), o.cfg.BallK, sc.dist, &sc.touched, &sc.h)
				o.sketch[u] = sk
				o.rsketch[u] = r
			}
		})
	}
	pool.Wait()
}

// nearestInto settles up to k nodes of a Dijkstra from src and returns
// them sorted by ascending node ID, plus the guaranteed-exact radius:
// +Inf when the frontier exhausted (the sketch holds src's entire
// component), otherwise the last settled distance r, guaranteeing every
// v with d(src,v) < r is in the sketch. dist must be all-+Inf on entry
// and is restored on exit via the touched list.
func (g *Graph) nearestInto(src NodeID, k int, dist []float64, touched *[]NodeID, h *distHeap) ([]Neighbor, float64) {
	*touched = (*touched)[:0]
	*h = (*h)[:0]
	dist[src] = 0
	*touched = append(*touched, src)
	h.push(distItem{node: src, d: 0})
	settled := make([]Neighbor, 0, k)
	radius := Inf
	for len(*h) > 0 {
		it := h.pop()
		if it.d > dist[it.node] {
			continue // stale entry; settled nodes only reappear as stale
		}
		if len(settled) == k {
			// it is the (k+1)-th nearest: everything strictly closer is
			// already in the sketch, so its distance is the exact radius.
			radius = it.d
			break
		}
		settled = append(settled, Neighbor{Node: it.node, D: it.d})
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				if dist[e.to] == Inf {
					*touched = append(*touched, e.to)
				}
				dist[e.to] = nd
				h.push(distItem{node: e.to, d: nd})
			}
		}
	}
	for _, u := range *touched {
		dist[u] = Inf
	}
	slices.SortFunc(settled, byNode)
	return settled, radius
}

// byNode orders neighbors by ascending node ID; IDs are unique, so the
// order is total.
func byNode(a, b Neighbor) int { return cmp.Compare(a.Node, b.Node) }

// within calls visit, in settle order, for every node within distance r
// of src with its exact distance: a Dijkstra that never leaves the ball,
// so it costs its output. sc.dist must be all-+Inf on entry and is
// restored on exit. The scratch appends amortize to zero once pooled
// buffers have warmed up to the working ball size, which is what the
// BallSize allocation pin relies on.
func (g *Graph) within(src NodeID, r float64, sc *nearScratch, visit func(Neighbor)) {
	dist := sc.dist
	sc.touched = sc.touched[:0]
	sc.h = sc.h[:0]
	dist[src] = 0
	//motlint:ignore hotalloc pooled scratch grows once to the working ball size
	sc.touched = append(sc.touched, src)
	//motlint:ignore hotalloc pooled heap grows once to the working ball size
	sc.h.push(distItem{node: src, d: 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if it.d > dist[it.node] || it.d > r {
			continue
		}
		visit(Neighbor{Node: it.node, D: it.d})
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] && nd <= r {
				if dist[e.to] == Inf {
					//motlint:ignore hotalloc pooled scratch grows once to the working ball size
					sc.touched = append(sc.touched, e.to)
				}
				dist[e.to] = nd
				//motlint:ignore hotalloc pooled heap grows once to the working ball size
				sc.h.push(distItem{node: e.to, d: nd})
			}
		}
	}
	for _, u := range sc.touched {
		dist[u] = Inf
	}
}

// computeStretch derives the published bound. For any pair answered by a
// sketch the estimate is exact. A pair (u,v) answered by landmarks has
// v outside u's sketch, so exact ≥ rsketch[u] (nearestInto can leave
// nodes tied at the radius out of the sketch), while the triangle route
// through u's nearest landmark overshoots by at most 2·rland[u]; hence
// est/exact ≤ 1 + 2·rland[u]/rsketch[u], and the maximum of that ratio
// over nodes with truncated sketches bounds every estimated pair.
func (o *Oracle) computeStretch() {
	s := 1.0
	for u := range o.rsketch {
		r := o.rsketch[u]
		if r == Inf || r <= 0 {
			continue // whole component in the sketch: never estimated
		}
		if b := 1 + 2*o.rland[u]/r; b > s {
			s = b
		}
	}
	o.stretch = s
}

// Graph returns the underlying graph.
func (o *Oracle) Graph() *Graph { return o.g }

// Landmarks returns the number of landmark rows kept.
func (o *Oracle) Landmarks() int { return len(o.landmarks) }

// BallK returns the per-node sketch size.
func (o *Oracle) BallK() int { return o.cfg.BallK }

// Bytes estimates the oracle's resident memory: landmark rows plus ball
// sketches (the quantity the BENCH trajectory tracks as bytes/node).
func (o *Oracle) Bytes() int64 {
	b := int64(len(o.lrows)) * int64(o.g.N()) * 8
	for _, sk := range o.sketch {
		b += int64(len(sk)) * 16
	}
	b += int64(len(o.rland)+len(o.rsketch)) * 8
	b += int64(len(o.comp)) * 4
	return b
}

// Stretch returns the build-time-computed bound S with
// exact ≤ Dist ≤ S·exact for every finite pair.
func (o *Oracle) Stretch() float64 { return o.stretch }

// sketchDist looks v up in u's sketch (binary search by node ID).
func (o *Oracle) sketchDist(u, v NodeID) (float64, bool) {
	sk := o.sketch[u]
	i := sort.Search(len(sk), func(i int) bool { return sk[i].Node >= v })
	if i < len(sk) && sk[i].Node == v {
		return sk[i].D, true
	}
	return 0, false
}

// Dist returns the exact distance when either endpoint's sketch holds
// the other, and otherwise the landmark triangle upper bound
// min_l d(u,l)+d(l,v). Cross-component pairs return +Inf. It panics on
// out-of-range nodes, like Metric.Dist.
//
// The pair is looked up in (lower ID, higher ID) order: on weighted
// graphs the two endpoints' sketches sum a path's weights from opposite
// ends and can disagree in the last bit, and the contract promises exact
// symmetry.
//
//motlint:hotpath
func (o *Oracle) Dist(u, v NodeID) float64 {
	if !o.g.valid(u) || !o.g.valid(v) {
		panic(fmt.Sprintf("graph: Dist(%d, %d) out of range for n=%d", u, v, o.g.N()))
	}
	if u == v {
		return 0
	}
	if v < u {
		u, v = v, u
	}
	if d, ok := o.sketchDist(u, v); ok {
		return d
	}
	if d, ok := o.sketchDist(v, u); ok {
		return d
	}
	best := Inf
	for _, row := range o.lrows {
		if s := row[u] + row[v]; s < best {
			best = s
		}
	}
	return best
}

// Scan visits every node within distance r of u with its exact
// distance: the sketch's entries when the sketch provably covers radius
// r, otherwise the nodes an on-demand radius-bounded Dijkstra settles
// (pooled scratch, output-sensitive — never an n-sized row).
func (o *Oracle) Scan(u NodeID, r float64, visit func(Neighbor)) {
	if !o.g.valid(u) {
		panic(fmt.Sprintf("graph: ball around %d out of range for n=%d", u, o.g.N()))
	}
	if r < o.rsketch[u] {
		for _, nb := range o.sketch[u] {
			if nb.D <= r {
				visit(nb)
			}
		}
		return
	}
	sc := o.scratch.Get().(*nearScratch)
	o.g.within(u, r, sc, visit)
	o.scratch.Put(sc)
}

// Near returns every node within distance r of u with its exact
// distance, ascending by node ID.
func (o *Oracle) Near(u NodeID, r float64) []Neighbor {
	var out []Neighbor
	o.Scan(u, r, func(nb Neighbor) { out = append(out, nb) })
	slices.SortFunc(out, byNode)
	return out
}

// Ball returns the nodes within distance r of u (including u).
func (o *Oracle) Ball(u NodeID, r float64) []NodeID {
	nbs := o.Near(u, r)
	out := make([]NodeID, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.Node
	}
	return out
}

// BallSize returns |{v : dist(u,v) <= r}| including u itself. Unlike
// Near it never materializes the neighbor list, so it allocates nothing
// once the pooled scratch has warmed up.
//
//motlint:hotpath
func (o *Oracle) BallSize(u NodeID, r float64) int {
	c := 0
	o.Scan(u, r, func(Neighbor) { c++ })
	return c
}

// Diameter returns the upper bound 2·min_l ecc(l) over the landmark
// rows, which is within a factor 2 of the true diameter
// (D ≤ 2·ecc(l) ≤ 2·D for every l). The edge semantics match
// Metric.Diameter exactly: 0 for graphs with fewer than two nodes, and
// +Inf for disconnected graphs — every landmark row then carries an Inf
// entry for the other components, so every eccentricity (and the bound)
// is +Inf. A landmark-free oracle at n ≥ 2 cannot happen (pickLandmarks
// places at least one landmark per component), but if it ever did the
// answer is the vacuous bound +Inf, never 0: a 0 would tell callers
// sizing doubling sweeps or ball radii that the graph is a point.
// Cached after the first call.
func (o *Oracle) Diameter() float64 {
	o.diamOnce.Do(func() {
		n := o.g.N()
		if n < 2 {
			o.diam = 0
			return
		}
		best := Inf
		for _, row := range o.lrows {
			ecc := 0.0
			for _, d := range row {
				if d > ecc {
					ecc = d
				}
			}
			if 2*ecc < best {
				best = 2 * ecc
			}
		}
		// best is still +Inf when there are no landmark rows (vacuous
		// bound) or the graph is disconnected (every ecc is +Inf) —
		// both deliberately +Inf, matching Metric.Diameter.
		o.diam = best
	})
	return o.diam
}

// EstimateDoubling returns an empirical estimate of the doubling
// dimension rho of o's metric: the max over sampled centers u and radii
// r = 1, 2, 4, … of log2(|B(u,2r)|/|B(u,r)|), a standard proxy used to
// size hierarchy constants. samples limits the centers probed (<= 0
// means all). Ball sizes are exact on every implementation, so every
// oracle of one graph gives the same estimate.
//
// Each radius's larger ball is the next radius's smaller one, so each
// ball is sized once. A center's sweep stops once its ball covers the
// whole graph, or when r passes the diameter or leaves the finite range.
// An *Oracle's Diameter is a ≤2× upper bound, which only adds rounds
// whose balls already cover the graph. A disconnected graph has an +Inf
// diameter: its sweeps run to the largest finite radius, and since balls
// never leave a component, the unreachable remainder never counts.
func EstimateDoubling(o DistanceOracle, samples int) float64 {
	n := o.Graph().N()
	if n == 0 {
		return 0
	}
	if samples <= 0 || samples > n {
		samples = n
	}
	step := n / samples
	if step == 0 {
		step = 1
	}
	maxRho := 0.0
	diam := o.Diameter()
	for u := 0; u < n; u += step {
		b1 := o.BallSize(NodeID(u), 1)
		for r := 1.0; b1 < n && r <= diam && r < Inf; r *= 2 {
			b2 := o.BallSize(NodeID(u), 2*r)
			if b2 > b1 {
				maxRho = max(maxRho, math.Log2(float64(b2)/float64(b1)))
			}
			b1 = b2
		}
	}
	return maxRho
}

// splitmix64 is the SplitMix64 finalizer, used for seeded deterministic
// choices without any shared PRNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var _ DistanceOracle = (*Oracle)(nil)
var _ DistanceOracle = (*Metric)(nil)

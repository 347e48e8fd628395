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
// *Metric (lazy rows that freeze into a flat all-pairs table,
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
	// Landmarks is the total landmark budget L (a full distance row
	// kept per landmark, O(L·n) floats). <=0 derives
	// 4·ceil(log2 n)+8, clamped to n. Every connected component receives
	// at least one landmark, so same-component estimates are always
	// finite.
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
// near-pair Dist exactly; seeded farthest-point landmarks (a full
// distance row each, stored node-major) answer far-pair Dist with the
// triangle upper bound min_l d(u,l)+d(l,v), and give PairSearch its A*
// lower bound. The published stretch bound is computed at build
// time from the cover and sketch radii (see Stretch) — no n×n table is
// ever materialized, and memory is O(n·(L+k)).
//
// An Oracle is immutable after NewOracle and safe for concurrent use.
type Oracle struct {
	g   *Graph
	cfg OracleConfig

	comp      []int32  // connected component index per node
	landmarks []NodeID // selection order
	// ltab is the landmark table, node-major: ltab[u·L+i] is
	// d(landmarks[i], u), so one node's L distances sit side by side.
	ltab  []float64
	rland []float64 // d(u, nearest landmark)

	sketch  [][]Neighbor // per node, k nearest sorted by ascending node ID
	rsketch []float64    // guaranteed-exact radius: d(u,v) < rsketch[u] ⇒ v in sketch[u]; +Inf when the sketch holds u's whole component

	stretch float64

	// scratch pools the fallback search state for Near queries beyond
	// the sketch radius: dist arrays stay all-+Inf between uses (searches
	// restore only the entries they touched), so a pooled query pays for
	// its output, not for an O(n) reset.
	scratch sync.Pool

	diamOnce sync.Once
	diam     float64
}

// nearScratch is the reusable state of one truncated search: dist is
// all-+Inf between searches, and each search restores only the entries
// it touched, so a search costs its output, not an O(n) reset. A
// breadth-first search uses touched as its queue. settled holds a
// sketch's node IDs while nearestInto sorts them.
type nearScratch struct {
	dist    []float64
	touched []NodeID
	h       distHeap
	settled []NodeID
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
// node ID) — and fills the node-major landmark table from one full
// distance row per landmark.
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
	// Budget proportional to component size, at least one. Weights are
	// positive, so a member that is not a landmark is a positive distance
	// from every landmark: each component gets exactly its budget, and the
	// budgets sum to the table's stride.
	budget := make([]int, nComp)
	L := 0
	for c, mem := range members {
		budget[c] = min(max(o.cfg.Landmarks*len(mem)/n, 1), len(mem))
		L += budget[c]
	}

	o.ltab = make([]float64, n*L)
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = Inf
	}
	// Each landmark's search fills one row of a batch, and a full batch
	// goes into the table node by node, so a node's block is written a
	// cache line at a time rather than one scattered entry per landmark.
	const batch = 8
	rows := make([]float64, batch*n)
	flushed := 0 // landmarks already in the table
	flush := func() {
		for u := 0; u < n; u++ {
			blk := o.ltab[u*L+flushed : u*L+len(o.landmarks)]
			for j := range blk {
				blk[j] = rows[j*n+u]
			}
		}
		flushed = len(o.landmarks)
	}
	var sc nearScratch
	addLandmark := func(l NodeID) {
		row := rows[(len(o.landmarks)-flushed)*n:][:n]
		o.g.distancesInto(l, row, &sc)
		o.landmarks = append(o.landmarks, l)
		if len(o.landmarks)-flushed == batch || len(o.landmarks) == L {
			flush()
		}
		for _, u := range members[o.comp[l]] {
			if row[u] < minD[u] {
				minD[u] = row[u]
			}
		}
	}

	for c, mem := range members {
		first := mem[splitmix64(uint64(o.cfg.Seed)^uint64(c)*0x9e3779b97f4a7c15)%uint64(len(mem))]
		addLandmark(first)
		for i := 1; i < budget[c]; i++ {
			far, farD := Undefined, -1.0
			for _, u := range mem {
				if d := minD[u]; d > farD {
					far, farD = u, d
				}
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
			// A search settles k nodes and touches their frontier too;
			// sizing both lists once spares their step-by-step growth.
			sc.settled = make([]NodeID, 0, o.cfg.BallK)
			sc.touched = make([]NodeID, 0, 2*o.cfg.BallK)
			for u := w; u < n; u += workers {
				sk, r := o.g.nearestInto(NodeID(u), o.cfg.BallK, sc)
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
// v with d(src,v) < r is in the sketch. sc.dist must be all-+Inf on
// entry and is restored on exit via the touched list.
//
// It keeps the heap on unit weights too: among nodes tied at the k-th
// distance, the settle order picks the ones that enter the sketch, and
// a breadth-first order would pick others. The sketch sorts its node IDs
// alone, which needs no comparator call, and then reads each distance
// from dist: a settled label never changes again, so that is the
// distance the node settled at.
func (g *Graph) nearestInto(src NodeID, k int, sc *nearScratch) ([]Neighbor, float64) {
	dist, h := sc.dist, &sc.h
	sc.touched = append(sc.touched[:0], src)
	sc.settled = sc.settled[:0]
	*h = (*h)[:0]
	dist[src] = 0
	h.push(distItem{node: src, d: 0})
	radius := Inf
	for len(*h) > 0 {
		it := h.pop()
		if it.d > dist[it.node] {
			continue // stale entry; settled nodes only reappear as stale
		}
		if len(sc.settled) == k {
			// it is the (k+1)-th nearest: everything strictly closer is
			// already in the sketch, so its distance is the exact radius.
			radius = it.d
			break
		}
		sc.settled = append(sc.settled, it.node)
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				if dist[e.to] == Inf {
					sc.touched = append(sc.touched, e.to)
				}
				dist[e.to] = nd
				h.push(distItem{node: e.to, d: nd})
			}
		}
	}
	slices.Sort(sc.settled)
	sketch := make([]Neighbor, len(sc.settled))
	for i, v := range sc.settled {
		sketch[i] = Neighbor{Node: v, D: dist[v]}
	}
	for _, u := range sc.touched {
		dist[u] = Inf
	}
	return sketch, radius
}

// byNode orders neighbors by ascending node ID; IDs are unique, so the
// order is total.
func byNode(a, b Neighbor) int { return cmp.Compare(a.Node, b.Node) }

// within calls visit for every node within distance r of src with its
// exact distance, in nondecreasing distance order: a breadth-first
// search when every weight is 1, else a Dijkstra, either of which never
// leaves the ball, so it costs its output. The two visit the same nodes
// with the same distances (see distancesInto); only the order among
// equal distances differs. sc.dist must be all-+Inf on entry and is
// restored on exit. The scratch appends amortize to zero once pooled
// buffers have warmed up to the working ball size, which is what the
// BallSize allocation pin relies on.
func (g *Graph) within(src NodeID, r float64, sc *nearScratch, visit func(Neighbor)) {
	dist := sc.dist
	if !g.nonUnit {
		if r < 0 {
			return
		}
		sc.touched = g.bfsInto(src, r, dist, sc.touched[:0])
		for _, u := range sc.touched {
			visit(Neighbor{Node: u, D: dist[u]})
			dist[u] = Inf
		}
		return
	}
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

// Landmarks returns the number of landmarks L.
func (o *Oracle) Landmarks() int { return len(o.landmarks) }

// BallK returns the per-node sketch size.
func (o *Oracle) BallK() int { return o.cfg.BallK }

// Bytes estimates the oracle's resident memory: the landmark table plus
// ball sketches (the quantity the BENCH trajectory tracks as bytes/node).
func (o *Oracle) Bytes() int64 {
	b := int64(len(o.ltab)) * 8
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
	L := len(o.landmarks)
	lu := o.ltab[int(u)*L : int(u)*L+L]
	lv := o.ltab[int(v)*L : int(v)*L+L]
	best := Inf
	for i, du := range lu {
		if s := du + lv[i]; s < best {
			best = s
		}
	}
	return best
}

// PairSearch returns an exact point-to-point search over o's graph that
// answers cross-component pairs from o's component labels and, when every
// weight is an integer and the weights sum below 2^52, runs A* on o's
// landmark table (see PairSearch). It reads o's tables and never writes
// them, so searches on many goroutines share one oracle without a lock;
// each search owns its scratch.
func (o *Oracle) PairSearch() *PairSearch {
	p := NewPairSearch(o.g)
	p.comp = o.comp
	if total, ok := o.g.integerWeightSum(); ok && total < 1<<52 {
		p.ltab, p.nl = o.ltab, len(o.landmarks)
	}
	return p
}

// Scan visits every node within distance r of u with its exact
// distance: the sketch's entries when the sketch provably covers radius
// r, otherwise the nodes an on-demand radius-bounded search reaches
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

// Diameter returns the upper bound 2·min_l ecc(l) over the landmarks,
// which is within a factor 2 of the true diameter
// (D ≤ 2·ecc(l) ≤ 2·D for every l). The edge semantics match
// Metric.Diameter exactly: 0 for graphs with fewer than two nodes, and
// +Inf for disconnected graphs — every landmark is then +Inf from the
// other components, so every eccentricity (and the bound) is +Inf. A
// landmark-free oracle at n ≥ 2 cannot happen (pickLandmarks
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
		L := len(o.landmarks)
		ecc := make([]float64, L)
		for off := 0; off < len(o.ltab); off += L {
			for i, d := range o.ltab[off : off+L] {
				if d > ecc[i] {
					ecc[i] = d
				}
			}
		}
		best := Inf
		for _, e := range ecc {
			if 2*e < best {
				best = 2 * e
			}
		}
		// best is still +Inf when there are no landmarks (vacuous
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

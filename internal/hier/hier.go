// Package hier builds the hierarchical overlay structure HS of the paper's
// §2.2 for constant-doubling networks: a sequence of connectivity graphs
// I_0..I_h whose node sets are nested maximal independent sets (computed
// with Luby's algorithm), with default parents, parent sets, detection
// paths, and special parents.
//
// Level sets: V_0 = V; E_l connects u,v in V_l with dist_G(u,v) < 2^(l+1);
// V_(l+1) is an MIS of (V_l, E_l); V_h is the single root node. The default
// parent of w in V_l is the closest node of V_(l+1) (within 2^(l+1) by MIS
// maximality); the parent set of w is every node of V_(l+1) within
// 4*2^(l+1) of w.
package hier

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/overlay"
)

// Config controls HS construction.
type Config struct {
	// Seed drives the randomized MIS level selection; runs with equal
	// seeds on equal graphs produce identical hierarchies.
	Seed int64
	// UseParentSets makes detection paths visit every parent-set member
	// per level in ID order (§3.1); when false, paths visit only the
	// default parent chain home^l(u), which is Algorithm 1's simple form.
	UseParentSets bool
	// SpecialParentOffset is sigma in Definition 3 (special parent of a
	// level-i station sits at level i+sigma on the same path). Zero means
	// derive the theoretical value 3*rho+6 from the measured doubling
	// constant; experiments typically use a small explicit value so that
	// special parents exist in shallow hierarchies. A negative value
	// disables special parents entirely (used by ablation benchmarks).
	SpecialParentOffset int
	// RhoSamples bounds the centers probed by the doubling estimate
	// (<= 0 means a default of 32).
	RhoSamples int
	// Incremental switches level selection from Luby's randomized MIS to
	// a deterministic hash-priority greedy MIS (mis.Greedy) whose result
	// is a pure function of (Seed, level, node). That makes the hierarchy
	// locally repairable: Exclude/Readmit plus Repair (see repair.go)
	// update the structure only around a failed or rejoined node, and
	// land on the exact hierarchy a fresh BuildExcluding of the same live
	// set would produce. Non-incremental hierarchies keep the historical
	// Luby levels (and their golden outputs) and do not support Repair.
	Incremental bool
}

// Hierarchy is the built HS. It implements overlay.Overlay.
type Hierarchy struct {
	g   *graph.Graph
	m   graph.DistanceOracle
	cfg Config

	levels  [][]graph.NodeID // levels[l] = V_l sorted ascending
	inLevel []int            // inLevel[u] = highest level containing u
	root    graph.NodeID
	h       int // top level index

	// defaultParent[l][u] = default parent in V_(l+1) of u in V_l.
	defaultParent []map[graph.NodeID]graph.NodeID
	// parentSet[l][u] = parent set in V_(l+1) of u in V_l, ID-sorted.
	parentSet []map[graph.NodeID][]graph.NodeID

	// Incremental-repair state (nil/zero unless cfg.Incremental; see
	// repair.go): levelSet[l][u] reports u ∈ V_l (level 0 tracks the
	// live set), excluded marks failed nodes — still present in the
	// levels[0] station space but ineligible for every MIS level and
	// parentless — and liveN counts non-excluded nodes.
	levelSet [][]bool
	excluded []bool
	liveN    int

	rhoOnce sync.Once
	rho     float64
	sigma   int
	pathsMu sync.RWMutex
	paths   map[graph.NodeID]overlay.Path
}

// Build constructs HS over g using the distance oracle m (which must
// belong to g). The graph must be connected and non-empty. Every distance
// Build consumes comes from a ball query (Scan or Near) — exact on both
// implementations — so an exact-metric build and an oracle build of the
// same (g, cfg) produce identical hierarchies, and an oracle build never
// touches an n×n table.
func Build(g *graph.Graph, m graph.DistanceOracle, cfg Config) (*Hierarchy, error) {
	return BuildExcluding(g, m, cfg, nil)
}

// BuildExcluding constructs HS over the live subgraph of g: the excluded
// nodes stay in the V_0 station space (the physical network does not
// shrink) but are ineligible for every MIS level and receive no parents,
// so their detection paths are undefined while excluded. A non-empty
// exclusion list requires Config.Incremental, whose deterministic greedy
// MIS is what makes the excluded-set hierarchy a pure function of the
// live set — the property Repair relies on.
func BuildExcluding(g *graph.Graph, m graph.DistanceOracle, cfg Config, excluded []graph.NodeID) (*Hierarchy, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("hier: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("hier: graph must be connected")
	}
	hs := &Hierarchy{
		g:     g,
		m:     m,
		cfg:   cfg,
		paths: make(map[graph.NodeID]overlay.Path),
	}

	// Level 0 = all nodes.
	v0 := make([]graph.NodeID, g.N())
	for i := range v0 {
		v0[i] = graph.NodeID(i)
	}
	hs.levels = append(hs.levels, v0)
	hs.inLevel = make([]int, g.N())

	if cfg.Incremental {
		hs.excluded = make([]bool, g.N())
		for _, u := range excluded {
			if int(u) < 0 || int(u) >= g.N() {
				return nil, fmt.Errorf("hier: excluded node %d out of range", u)
			}
			hs.excluded[u] = true
		}
		if err := hs.buildIncremental(); err != nil {
			return nil, err
		}
		hs.deriveSigma()
		return hs, nil
	}
	if len(excluded) > 0 {
		return nil, fmt.Errorf("hier: exclusions require Config.Incremental")
	}

	// Refine levels by MIS until a single node remains.
	rng := rand.New(rand.NewSource(cfg.Seed))
	member := make([]bool, g.N()) // scratch level-membership bitmap
	for len(hs.levels[len(hs.levels)-1]) > 1 {
		l := len(hs.levels) - 1
		cur := hs.levels[l]
		radius := math.Pow(2, float64(l+1))
		adj := levelAdjacency(m, cur, radius, member)
		next := mis.Luby(cur, adj, rng)
		if len(next) == 0 {
			return nil, fmt.Errorf("hier: MIS at level %d returned empty set", l)
		}
		if len(next) >= len(cur) && len(cur) > 1 {
			// MIS can't shrink an edgeless level graph; at radius 2^(l+1)
			// that only happens while nodes are still far apart, which is
			// fine — but guard against non-termination past the diameter.
			if radius > m.Diameter()*2+2 {
				return nil, fmt.Errorf("hier: level %d did not shrink past diameter", l)
			}
		}
		hs.levels = append(hs.levels, next)
		for _, u := range next {
			hs.inLevel[u] = l + 1
		}
	}
	hs.h = len(hs.levels) - 1
	hs.root = hs.levels[hs.h][0]

	set := make([][]bool, len(hs.levels))
	for l, lvl := range hs.levels {
		set[l] = make([]bool, g.N())
		for _, u := range lvl {
			set[l][u] = true
		}
	}
	if err := hs.assignLevelParents(set); err != nil {
		return nil, err
	}
	hs.deriveSigma()
	return hs, nil
}

// assignLevelParents fills the default parents and parent sets of every
// level below the top: each node of V_l flagged in set[l] gets its
// parents among V_(l+1), the nodes flagged in set[l+1].
//
// When the graph's path sums are exact (graph.IntegerWeights), it runs
// one 4*2^(l+1) ball search per member p of V_(l+1), in ascending ID,
// and files p under every flagged V_l node the ball reaches. V_(l+1) is
// a fraction of V_l, so this searches far fewer balls than one per V_l
// node. Filing in ID order leaves every set ID-sorted, and keeping only
// a strictly closer p leaves each tie on the lowest ID, which is the
// choice assignParentsInto makes. That search measures d(p,w) from p,
// where assignParentsInto measures d(w,p) from w; on other weights the
// two sums can differ in the last bit, so there each V_l node searches
// its own ball instead. Either way a node without a parent fails the
// build, and the error names the lowest such node.
func (hs *Hierarchy) assignLevelParents(set [][]bool) error {
	hs.defaultParent = make([]map[graph.NodeID]graph.NodeID, hs.h)
	hs.parentSet = make([]map[graph.NodeID][]graph.NodeID, hs.h)
	perUpper := hs.g.IntegerWeights()
	var (
		best  []graph.NodeID   // closest upper member found so far
		bestD []float64        // its distance
		found [][]graph.NodeID // upper members found so far, ascending
	)
	if perUpper {
		n := hs.g.N()
		best, bestD, found = make([]graph.NodeID, n), make([]float64, n), make([][]graph.NodeID, n)
	}
	for l := 0; l < hs.h; l++ {
		lower, upper := set[l], set[l+1]
		dp := make(map[graph.NodeID]graph.NodeID, len(hs.levels[l]))
		ps := make(map[graph.NodeID][]graph.NodeID, len(hs.levels[l]))
		hs.defaultParent[l], hs.parentSet[l] = dp, ps
		if !perUpper {
			for _, u := range hs.levels[l] {
				if !lower[u] {
					continue
				}
				if err := hs.assignParentsInto(u, l, upper, dp, ps); err != nil {
					return err
				}
			}
			continue
		}
		psRadius := 4 * math.Pow(2, float64(l+1))
		for _, p := range hs.levels[l+1] {
			hs.m.Scan(p, psRadius, func(nb graph.Neighbor) {
				w := nb.Node
				if !lower[w] {
					return
				}
				if len(found[w]) == 0 || nb.D < bestD[w] {
					best[w], bestD[w] = p, nb.D
				}
				found[w] = append(found[w], p)
			})
		}
		for _, u := range hs.levels[l] {
			if !lower[u] {
				continue
			}
			if len(found[u]) == 0 {
				return fmt.Errorf("hier: node %d has no level-%d parent", u, l+1)
			}
			dp[u], ps[u] = best[u], found[u]
			found[u] = nil
		}
	}
	return nil
}

// assignParentsInto computes the default parent and parent set of u in
// V_(l+1) (the nodes flagged in member) and stores them into dp and ps,
// replacing any previous assignment. MIS maximality puts the default
// parent within 2^(l+1), so the 4*2^(l+1) ball contains it, and best is
// always one of the set's members. Near is exact and ID-ascending, so
// the set comes out ID-sorted.
func (hs *Hierarchy) assignParentsInto(u graph.NodeID, l int, member []bool, dp map[graph.NodeID]graph.NodeID, ps map[graph.NodeID][]graph.NodeID) error {
	psRadius := 4 * math.Pow(2, float64(l+1))
	best, bestD := graph.Undefined, math.Inf(1)
	var set []graph.NodeID
	for _, nb := range hs.m.Near(u, psRadius) {
		if !member[nb.Node] {
			continue
		}
		p, d := nb.Node, nb.D
		if d < bestD || (d == bestD && p < best) {
			best, bestD = p, d
		}
		set = append(set, p)
	}
	if best == graph.Undefined {
		return fmt.Errorf("hier: node %d has no level-%d parent", u, l+1)
	}
	dp[u] = best
	ps[u] = set
	return nil
}

// deriveSigma fixes the special-parent offset. Only the theoretical
// default needs the measured doubling constant; an explicit or disabled
// offset skips that O(n²) estimate entirely — Rho() still computes it on
// demand.
func (hs *Hierarchy) deriveSigma() {
	switch {
	case hs.cfg.SpecialParentOffset > 0:
		hs.sigma = hs.cfg.SpecialParentOffset
	case hs.cfg.SpecialParentOffset < 0:
		hs.sigma = 0 // special parents disabled (ablation)
	default:
		hs.sigma = 3*int(math.Ceil(hs.Rho())) + 6
	}
}

// levelAdjacency returns the E_l adjacency: nodes of cur within < radius.
// member is an all-false scratch bitmap of graph size, restored on return.
// The neighbor lists come in Scan's order: mis.Luby, mis.Greedy and
// mis.Verify do not depend on neighbor order.
func levelAdjacency(m graph.DistanceOracle, cur []graph.NodeID, radius float64, member []bool) mis.Adjacency {
	for _, u := range cur {
		member[u] = true
	}
	// Precompute neighbor lists once; MIS calls adj repeatedly.
	idx := make(map[graph.NodeID][]graph.NodeID, len(cur))
	for _, u := range cur {
		var nbr []graph.NodeID
		m.Scan(u, radius, func(nb graph.Neighbor) {
			if nb.Node != u && nb.D < radius && member[nb.Node] {
				nbr = append(nbr, nb.Node)
			}
		})
		idx[u] = nbr
	}
	for _, u := range cur {
		member[u] = false
	}
	return func(u graph.NodeID) []graph.NodeID { return idx[u] }
}

// Height returns the top level index h.
func (hs *Hierarchy) Height() int { return hs.h }

// Root returns the root station (level h).
func (hs *Hierarchy) Root() overlay.Station {
	return overlay.Station{Level: hs.h, Key: int64(hs.root), Host: hs.root}
}

// RootNode returns the physical root node.
func (hs *Hierarchy) RootNode() graph.NodeID { return hs.root }

// Metric returns the network's distance oracle.
func (hs *Hierarchy) Metric() graph.DistanceOracle { return hs.m }

// SpecialOffset returns sigma.
func (hs *Hierarchy) SpecialOffset() int { return hs.sigma }

// Rho returns the measured doubling-dimension estimate, computed on
// first use and cached (Build itself only needs it when deriving sigma,
// so hierarchies with an explicit SpecialParentOffset never pay for it
// unless asked). Safe for concurrent use.
func (hs *Hierarchy) Rho() float64 {
	hs.rhoOnce.Do(func() {
		samples := hs.cfg.RhoSamples
		if samples <= 0 {
			samples = 32
		}
		hs.rho = graph.EstimateDoubling(hs.m, samples)
	})
	return hs.rho
}

// LevelNodes returns V_l (shared slice; do not modify).
func (hs *Hierarchy) LevelNodes(l int) []graph.NodeID {
	if l < 0 || l > hs.h {
		return nil
	}
	return hs.levels[l]
}

// MaxLevel returns the highest level that contains u.
func (hs *Hierarchy) MaxLevel(u graph.NodeID) int {
	if int(u) < 0 || int(u) >= len(hs.inLevel) {
		return -1
	}
	return hs.inLevel[u]
}

// Home returns home^l(u): u itself at l = 0, otherwise the default parent
// of home^(l-1)(u).
func (hs *Hierarchy) Home(u graph.NodeID, l int) graph.NodeID {
	cur := u
	for i := 0; i < l; i++ {
		cur = hs.defaultParent[i][cur]
	}
	return cur
}

// HomeStation returns home^l(u) as an overlay station.
func (hs *Hierarchy) HomeStation(u graph.NodeID, l int) overlay.Station {
	h := hs.Home(u, l)
	return overlay.Station{Level: l, Key: int64(h), Host: h}
}

// DefaultParent returns the default parent at level l+1 of node u in V_l.
func (hs *Hierarchy) DefaultParent(u graph.NodeID, l int) (graph.NodeID, bool) {
	if l < 0 || l >= hs.h {
		return graph.Undefined, false
	}
	p, ok := hs.defaultParent[l][u]
	return p, ok
}

// ParentSet returns the parent set at level l+1 of node u in V_l, sorted by
// node ID (shared slice; do not modify).
func (hs *Hierarchy) ParentSet(u graph.NodeID, l int) []graph.NodeID {
	if l < 0 || l >= hs.h {
		return nil
	}
	return hs.parentSet[l][u]
}

// DPath returns the detection path of bottom-level node u: per level, the
// stations visited in ID order. With UseParentSets the level-l entry is
// parentset^l(u) (the parent set of home^(l-1)(u)); otherwise it is the
// single default parent home^l(u). Results are cached and shared.
func (hs *Hierarchy) DPath(u graph.NodeID) overlay.Path {
	hs.pathsMu.RLock()
	p, ok := hs.paths[u]
	hs.pathsMu.RUnlock()
	if ok {
		return p
	}
	p = hs.buildPath(u)
	hs.pathsMu.Lock()
	if prev, ok := hs.paths[u]; ok {
		hs.pathsMu.Unlock()
		return prev
	}
	hs.paths[u] = p
	hs.pathsMu.Unlock()
	return p
}

func (hs *Hierarchy) buildPath(u graph.NodeID) overlay.Path {
	p := make(overlay.Path, hs.h+1)
	p[0] = []overlay.Station{{Level: 0, Key: int64(u), Host: u}}
	home := u
	for l := 1; l <= hs.h; l++ {
		if hs.cfg.UseParentSets {
			set := hs.parentSet[l-1][home]
			stations := make([]overlay.Station, len(set))
			for i, s := range set {
				stations[i] = overlay.Station{Level: l, Key: int64(s), Host: s}
			}
			p[l] = stations
		} else {
			dp := hs.defaultParent[l-1][home]
			p[l] = []overlay.Station{{Level: l, Key: int64(dp), Host: dp}}
		}
		home = hs.defaultParent[l-1][home]
	}
	return p
}

// Validate checks the structural invariants of HS: nested level sets, level
// independence/maximality under the E_l adjacency (over the live nodes in
// incremental mode — excluded nodes are ineligible everywhere), default
// parents within 2^(l+1), parent sets within 4*2^(l+1) and containing the
// default parent, and a single root. It returns the first violation found.
func (hs *Hierarchy) Validate() error {
	for l := 1; l <= hs.h; l++ {
		upper := make(map[graph.NodeID]bool, len(hs.levels[l]))
		for _, u := range hs.levels[l] {
			if hs.isExcluded(u) {
				return fmt.Errorf("hier: excluded node %d in level %d", u, l)
			}
			upper[u] = true
		}
		lower := make(map[graph.NodeID]bool, len(hs.levels[l-1]))
		for _, u := range hs.levels[l-1] {
			lower[u] = true
		}
		for u := range upper {
			if !lower[u] {
				return fmt.Errorf("hier: level %d node %d not in level %d", l, u, l-1)
			}
		}
		live := hs.liveNodes(l - 1)
		radius := math.Pow(2, float64(l))
		adj := levelAdjacency(hs.m, live, radius, make([]bool, hs.g.N()))
		if ok, why := mis.Verify(live, adj, hs.levels[l]); !ok {
			return fmt.Errorf("hier: level %d: %s", l, why)
		}
	}
	for l := 0; l < hs.h; l++ {
		bound := math.Pow(2, float64(l+1))
		for _, u := range hs.levels[l] {
			if hs.isExcluded(u) {
				if _, has := hs.defaultParent[l][u]; has {
					return fmt.Errorf("hier: excluded node %d has a level-%d parent", u, l+1)
				}
				continue
			}
			dp := hs.defaultParent[l][u]
			// Near is exact on every oracle; absence from the 4*bound ball
			// means the distance exceeds 4*bound.
			near := make(map[graph.NodeID]float64)
			for _, nb := range hs.m.Near(u, 4*bound) {
				near[nb.Node] = nb.D
			}
			if d, ok := near[dp]; !ok || d > bound {
				return fmt.Errorf("hier: default parent of %d at level %d is %v away (> %v)", u, l, d, bound)
			}
			set := hs.parentSet[l][u]
			foundDP := false
			for i, p := range set {
				if p == dp {
					foundDP = true
				}
				if d, ok := near[p]; !ok || d > 4*bound {
					return fmt.Errorf("hier: parent-set member %d of %d at level %d is %v away (> %v)", p, u, l, d, 4*bound)
				}
				if i > 0 && set[i-1] >= p {
					return fmt.Errorf("hier: parent set of %d at level %d not ID-sorted", u, l)
				}
			}
			if !foundDP {
				return fmt.Errorf("hier: parent set of %d at level %d missing default parent", u, l)
			}
		}
	}
	if hs.liveCount(hs.h) != 1 {
		return fmt.Errorf("hier: top level has %d live nodes", hs.liveCount(hs.h))
	}
	return nil
}

// Stats summarizes the hierarchy.
type Stats struct {
	Height     int
	LevelSizes []int
	Rho        float64
	Sigma      int
	Root       graph.NodeID
}

// Stats returns summary statistics of the built hierarchy.
func (hs *Hierarchy) Stats() Stats {
	sizes := make([]int, hs.h+1)
	for l := range hs.levels {
		sizes[l] = len(hs.levels[l])
	}
	return Stats{Height: hs.h, LevelSizes: sizes, Rho: hs.Rho(), Sigma: hs.sigma, Root: hs.root}
}

var _ overlay.Overlay = (*Hierarchy)(nil)

// Package zdat implements the Z-DAT baseline (Lin, Peng & Tseng, IEEE TMC
// 2006): the Zone-based Deviation-Avoidance Tree, plus its shortcuts
// variant (message-pruning tree with shortcuts, Liu et al. 2008).
//
// The deviation-avoidance rule keeps every node's tree path to the sink a
// shortest path in G (zero deviation), while the detection rates make the
// tree traffic-conscious: among a node's shortest-path-preserving parent
// candidates, the highest-rate adjacency is linked first, so frequently
// crossed edges become tree edges. Z-DAT's zones divide the sensing region
// into 4^depth rectangular zones; parent candidates inside the node's own
// zone are preferred to keep subtrees geographically local.
package zdat

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

// Config parameterizes the Z-DAT construction.
type Config struct {
	// ZoneDepth is the recursive quadrant-division depth delta; the region
	// is split into 4^ZoneDepth rectangular zones. Zero means plain DAT
	// (one zone).
	ZoneDepth int
	// Sink is the tree root; Undefined selects the metric center, the
	// natural sink placement. Any other sensor outside the network is an
	// error.
	Sink graph.NodeID
}

// BuildTree constructs the Z-DAT spanning tree.
func BuildTree(g *graph.Graph, m *graph.Metric, rates map[mobility.EdgeKey]float64, cfg Config) (*treedir.Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("zdat: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("zdat: graph must be connected")
	}
	sink := cfg.Sink
	if sink == graph.Undefined {
		sink = m.Center()
	} else if sink < 0 || int(sink) >= n {
		return nil, fmt.Errorf("zdat: sink %d out of range [0,%d)", sink, n)
	}
	zones := zoneIDs(g, cfg.ZoneDepth)

	tr := treedir.NewTree()
	leaf := make([]int, n)
	for u := 0; u < n; u++ {
		id, err := tr.AddLeaf(graph.NodeID(u))
		if err != nil {
			return nil, err
		}
		leaf[u] = id
	}
	toSink := m.Row(sink)
	rate := func(a, b graph.NodeID) float64 {
		return rates[mobility.MakeEdgeKey(a, b)]
	}
	const eps = 1e-9
	for u := 0; u < n; u++ {
		if graph.NodeID(u) == sink {
			continue
		}
		// Deviation avoidance: only neighbors on a shortest path to the
		// sink qualify. Prefer same-zone candidates, then higher rate,
		// then smaller ID.
		var best graph.NodeID = graph.Undefined
		bestZone, bestRate := false, -1.0
		g.Neighbors(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
			if math.Abs(toSink[v]+w-toSink[u]) > eps {
				return true // would deviate
			}
			sameZone := zones[v] == zones[u]
			r := rate(graph.NodeID(u), v)
			better := false
			switch {
			case best == graph.Undefined:
				better = true
			case sameZone != bestZone:
				better = sameZone
			case r != bestRate:
				better = r > bestRate
			default:
				better = v < best
			}
			if better {
				best, bestZone, bestRate = v, sameZone, r
			}
			return true
		})
		if best == graph.Undefined {
			return nil, fmt.Errorf("zdat: node %d has no shortest-path parent toward sink %d", u, sink)
		}
		if err := tr.SetParent(leaf[u], leaf[best]); err != nil {
			return nil, err
		}
	}
	if err := tr.Finalize(); err != nil {
		return nil, err
	}
	return tr, nil
}

// zoneIDs assigns each sensor its rectangular zone index at the configured
// quadrant depth. Graphs without geometric embeddings fall back to a single
// zone (plain DAT).
func zoneIDs(g *graph.Graph, depth int) []int {
	n := g.N()
	zones := make([]int, n)
	if depth <= 0 || !g.HasPositions() {
		return zones
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for u := 0; u < n; u++ {
		p := g.Position(graph.NodeID(u))
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	side := 1 << depth
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	for u := 0; u < n; u++ {
		p := g.Position(graph.NodeID(u))
		zx := int(float64(side) * (p.X - minX) / (spanX * (1 + 1e-12)))
		zy := int(float64(side) * (p.Y - minY) / (spanY * (1 + 1e-12)))
		if zx >= side {
			zx = side - 1
		}
		if zy >= side {
			zy = side - 1
		}
		zones[u] = zy*side + zx
	}
	return zones
}

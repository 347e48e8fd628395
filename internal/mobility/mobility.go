// Package mobility generates the object-movement and query workloads of the
// paper's evaluation (§8): m mobile objects placed at random sensors, each
// performing a fixed number of maintenance operations (moves between
// adjacent sensors) interleaved across objects in random order, plus query
// workloads from random requesters.
//
// Because the baselines (STUN, Z-DAT) are traffic-conscious, the package
// also extracts per-edge detection rates — how often objects cross each
// sensor adjacency — from a generated workload, which the baseline tree
// constructions consume. MOT never sees them (it is traffic-oblivious).
package mobility

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
)

// Model selects how objects move.
type Model int

const (
	// RandomWalk moves an object to a uniformly random adjacent sensor at
	// each maintenance operation.
	RandomWalk Model = iota
	// RandomWaypoint repeatedly picks a random destination sensor and
	// walks the shortest path to it one adjacency at a time (each hop is
	// one maintenance operation) — smoother, trajectory-like traffic.
	RandomWaypoint
)

// Move is one maintenance operation: the object's proxy becomes To (always
// adjacent to the object's previous proxy).
type Move struct {
	Object core.ObjectID
	To     graph.NodeID
}

// Query is one query operation issued at sensor From for Object.
type Query struct {
	From   graph.NodeID
	Object core.ObjectID
}

// Workload is a reproducible evaluation workload.
type Workload struct {
	Objects int
	Initial []graph.NodeID // initial proxy per object
	Moves   []Move         // random interleaving; per-object order preserved
	Queries []Query
}

// Config parameterizes workload generation.
type Config struct {
	Objects        int
	MovesPerObject int
	Queries        int
	Model          Model
	Seed           int64
	// QueryRadius localizes queries: each requester is sampled uniformly
	// from the sensors within this distance of the queried object's final
	// position (0 = uniform over all sensors, the paper's setting).
	// Local queries are the regime where distance-sensitive tracking
	// shines: a sink-based structure pays Θ(D) for a query whose optimum
	// is a couple of hops.
	QueryRadius float64
}

// Generate builds a workload over graph g. Movement destinations follow the
// configured model; the per-object move sequences are interleaved in random
// order exactly as in the paper's experiments.
func Generate(g *graph.Graph, m graph.DistanceOracle, cfg Config) (*Workload, error) {
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("mobility: need at least one object")
	}
	if cfg.MovesPerObject < 0 || cfg.Queries < 0 {
		return nil, fmt.Errorf("mobility: negative count: %d moves per object, %d queries", cfg.MovesPerObject, cfg.Queries)
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("mobility: empty graph")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Objects: cfg.Objects}

	w.Initial = make([]graph.NodeID, cfg.Objects)
	for o := range w.Initial {
		w.Initial[o] = graph.NodeID(rng.Intn(g.N()))
	}

	// Per-object move sequences.
	seqs := make([][]graph.NodeID, cfg.Objects)
	for o := 0; o < cfg.Objects; o++ {
		cur := w.Initial[o]
		seq := make([]graph.NodeID, 0, cfg.MovesPerObject)
		var route []graph.NodeID // pending waypoint route
		for len(seq) < cfg.MovesPerObject {
			switch cfg.Model {
			case RandomWalk:
				deg := g.Degree(cur)
				if deg == 0 {
					return nil, fmt.Errorf("mobility: node %d has no neighbors", cur)
				}
				cur = g.NeighborAt(cur, rng.Intn(deg))
				seq = append(seq, cur)
			case RandomWaypoint:
				if len(route) == 0 {
					target := graph.NodeID(rng.Intn(g.N()))
					if target == cur {
						continue
					}
					sp := g.Dijkstra(cur)
					route = sp.PathTo(target)
					if len(route) > 0 {
						route = route[1:] // drop the current node
					}
					continue
				}
				cur = route[0]
				route = route[1:]
				seq = append(seq, cur)
			default:
				return nil, fmt.Errorf("mobility: unknown model %d", cfg.Model)
			}
		}
		seqs[o] = seq
	}

	// Interleave: random order across objects, order preserved within.
	idx := make([]int, cfg.Objects)
	remaining := cfg.Objects * cfg.MovesPerObject
	w.Moves = make([]Move, 0, remaining)
	for remaining > 0 {
		o := rng.Intn(cfg.Objects)
		if idx[o] >= len(seqs[o]) {
			continue
		}
		w.Moves = append(w.Moves, Move{Object: core.ObjectID(o), To: seqs[o][idx[o]]})
		idx[o]++
		remaining--
	}

	// Queries: random object; requester uniform or localized around the
	// object's final position.
	finals := w.FinalLocations()
	w.Queries = make([]Query, cfg.Queries)
	for i := range w.Queries {
		o := rng.Intn(cfg.Objects)
		from := graph.NodeID(rng.Intn(g.N()))
		if cfg.QueryRadius > 0 {
			ball := m.Ball(finals[o], cfg.QueryRadius)
			from = ball[rng.Intn(len(ball))]
		}
		w.Queries[i] = Query{From: from, Object: core.ObjectID(o)}
	}
	return w, nil
}

// FinalLocations replays the workload and returns each object's proxy after
// all moves.
func (w *Workload) FinalLocations() []graph.NodeID {
	locs := append([]graph.NodeID(nil), w.Initial...)
	for _, mv := range w.Moves {
		locs[mv.Object] = mv.To
	}
	return locs
}

// EdgeKey canonically identifies an undirected adjacency.
type EdgeKey struct {
	U, V graph.NodeID
}

// MakeEdgeKey returns the canonical (U < V) key.
func MakeEdgeKey(a, b graph.NodeID) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{U: a, V: b}
}

// DetectionRates replays the workload and counts how often objects cross
// each adjacency — the traffic knowledge the baselines' tree constructions
// consume (the paper's detection rate, §1.3). Moves between non-adjacent
// sensors (which the generators never produce) are attributed to the first
// edge of the shortest path.
func (w *Workload) DetectionRates(g *graph.Graph) map[EdgeKey]float64 {
	rates := make(map[EdgeKey]float64)
	locs := append([]graph.NodeID(nil), w.Initial...)
	for _, mv := range w.Moves {
		from := locs[mv.Object]
		if from != mv.To {
			if g.HasEdge(from, mv.To) {
				rates[MakeEdgeKey(from, mv.To)]++
			} else {
				sp := g.Dijkstra(from)
				path := sp.PathTo(mv.To)
				for i := 1; i < len(path); i++ {
					rates[MakeEdgeKey(path[i-1], path[i])]++
				}
			}
		}
		locs[mv.Object] = mv.To
	}
	return rates
}

// MovesFor returns the subsequence of moves for one object.
func (w *Workload) MovesFor(o core.ObjectID) []Move {
	var out []Move
	for _, mv := range w.Moves {
		if mv.Object == o {
			out = append(out, mv)
		}
	}
	return out
}

package main

import (
	"math/rand"

	"repro/internal/graph"
)

// kind is an operation type on the wire.
type kind uint8

const (
	kPublish kind = iota
	kMove
	kQuery
)

func (k kind) String() string {
	return [...]string{"publish", "move", "query"}[k]
}

// op is one tracking operation: publish obj at node, move obj to node,
// or query obj from node (node < 0 queries from the overlay root).
type op struct {
	kind kind
	obj  int32
	node int32
}

// stream generates the operations on objects [lo, hi) of a serving
// workload from a seed. Its objects are visited in one fixed seeded
// order, so an object recurs only every hi-lo operations and two
// operations on one object are almost never in flight together. The
// same seed always yields the same sequence.
type stream struct {
	spec  *serveSpec
	g     *graph.Graph
	rng   *rand.Rand
	lo    int32
	order []int32
	pos   []int32 // where the stream last sent object lo+i
	k     int
	nbrs  []graph.NodeID
}

func newStream(spec *serveSpec, g *graph.Graph, seed int64, lo, hi int) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{spec: spec, g: g, rng: rng, lo: int32(lo), pos: make([]int32, hi-lo)}
	for i := range s.pos {
		s.pos[i] = int32(rng.Intn(g.N()))
	}
	for _, i := range rng.Perm(hi - lo) {
		s.order = append(s.order, int32(lo+i))
	}
	return s
}

// publishes returns a publish of each of the stream's objects where the
// stream last sent it: the seeded start before any next.
func (s *stream) publishes() []op {
	out := make([]op, len(s.pos))
	for i, at := range s.pos {
		out[i] = op{kind: kPublish, obj: s.lo + int32(i), node: at}
	}
	return out
}

// next returns the stream's next move or query.
func (s *stream) next() op {
	o := s.order[s.k%len(s.order)]
	s.k++
	n := s.g.N()
	if s.rng.Float64() >= s.spec.moveShare {
		return op{kind: kQuery, obj: o, node: int32(s.rng.Intn(n))}
	}
	cur := s.pos[o-s.lo]
	var to int32
	if s.spec.farMoves {
		to = int32(s.rng.Intn(n - 1))
		if to >= cur {
			to++
		}
	} else {
		s.nbrs = s.nbrs[:0]
		s.g.Neighbors(graph.NodeID(cur), func(v graph.NodeID, _ float64) bool {
			s.nbrs = append(s.nbrs, v)
			return true
		})
		to = int32(s.nbrs[s.rng.Intn(len(s.nbrs))])
	}
	s.pos[o-s.lo] = to
	return op{kind: kMove, obj: o, node: to}
}

package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Grid returns a w×h grid network with unit edge weights and unit-spaced
// positions; node (x, y) has ID y*w + x. Grids are the network family used
// in the paper's evaluation (§8).
func Grid(w, h int) *Graph {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("graph: invalid grid %dx%d", w, h))
	}
	g := New(w * h)
	pos := make([]Point, w*h)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pos[id(x, y)] = Point{X: float64(x), Y: float64(y)}
			if x+1 < w {
				g.MustAddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				g.MustAddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	if err := g.SetPositions(pos); err != nil {
		panic(err)
	}
	return g
}

// ParseGrid parses a grid spec "WxH" (case-insensitive x) into two sides
// of at least one sensor whose product fits an int, the sizes Grid
// accepts; any other text, including trailing characters, fails.
func ParseGrid(spec string) (w, h int, ok bool) {
	ws, hs, found := strings.Cut(strings.ToLower(spec), "x")
	if !found {
		return 0, 0, false
	}
	w, errW := strconv.Atoi(ws)
	h, errH := strconv.Atoi(hs)
	if errW != nil || errH != nil || w < 1 || h < 1 || w > math.MaxInt/h {
		return 0, 0, false
	}
	return w, h, true
}

// GridSizes mirrors the evaluation's "10 to 1024 nodes" sweep with
// near-square grids.
var GridSizes = []struct {
	W, H int
}{
	{2, 5}, {4, 4}, {6, 6}, {8, 8}, {11, 11}, {16, 16}, {23, 23}, {32, 32},
}

// NearSquareGrid returns a grid with approximately n nodes, as close to
// square as possible while having at least n nodes.
func NearSquareGrid(n int) *Graph {
	if n <= 0 {
		panic("graph: NearSquareGrid needs n > 0")
	}
	w := int(math.Floor(math.Sqrt(float64(n))))
	if w < 1 {
		w = 1
	}
	h := (n + w - 1) / w
	return Grid(w, h)
}

// Ring returns an n-cycle with unit edge weights; rings are the paper's
// example of a topology where spanning-tree trackers pay Θ(D) cost ratios.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	g := New(n)
	pos := make([]Point, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		r := float64(n) / (2 * math.Pi)
		pos[i] = Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
		g.MustAddEdge(NodeID(i), NodeID((i+1)%n), 1)
	}
	if err := g.SetPositions(pos); err != nil {
		panic(err)
	}
	return g
}

// Path returns an n-node path with unit edge weights.
func Path(n int) *Graph {
	if n < 1 {
		panic("graph: path needs n >= 1")
	}
	g := New(n)
	pos := make([]Point, n)
	for i := 0; i < n; i++ {
		pos[i] = Point{X: float64(i)}
		if i+1 < n {
			g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
		}
	}
	if err := g.SetPositions(pos); err != nil {
		panic(err)
	}
	return g
}

// Star returns a star with n-1 leaves around center 0 and unit weights.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: star needs n >= 2")
	}
	g := New(n)
	pos := make([]Point, n)
	for i := 1; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n-1)
		pos[i] = Point{X: math.Cos(theta), Y: math.Sin(theta)}
		g.MustAddEdge(0, NodeID(i), 1)
	}
	if err := g.SetPositions(pos); err != nil {
		panic(err)
	}
	return g
}

// RandomGeometric places n sensors uniformly at random in a side×side
// square and connects pairs within the given radio radius, weighting edges
// by Euclidean distance; it then normalizes weights so the shortest edge is
// 1 and retries with a grown radius until connected. This is the standard
// constant-doubling sensor deployment model.
func RandomGeometric(n int, side, radius float64, rng *rand.Rand) *Graph {
	if n <= 0 {
		panic("graph: RandomGeometric needs n > 0")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	for {
		g := New(n)
		if err := g.SetPositions(pos); err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := pos[i].X - pos[j].X
				dy := pos[i].Y - pos[j].Y
				d := math.Hypot(dx, dy)
				if d > 0 && d <= radius {
					g.MustAddEdge(NodeID(i), NodeID(j), d)
				}
			}
		}
		if g.Connected() {
			g.Normalize()
			return g
		}
		radius *= 1.3
		if radius > 4*side {
			// Degenerate draw (coincident points); fall back to a clique
			// over distinct points by perturbing.
			for i := range pos {
				pos[i].X += rng.Float64() * 1e-6
				pos[i].Y += rng.Float64() * 1e-6
			}
		}
	}
}

// RandomTree returns a uniformly random labeled tree on n nodes (random
// attachment), unit weights. Useful as a pathological general-network input.
func RandomTree(n int, rng *rand.Rand) *Graph {
	if n < 1 {
		panic("graph: RandomTree needs n >= 1")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	g := New(n)
	for i := 1; i < n; i++ {
		p := NodeID(rng.Intn(i))
		g.MustAddEdge(NodeID(i), p, 1)
	}
	return g
}

// WeightedRing returns a ring whose single "long" edge makes the diameter
// large relative to n — exercises the min{log n, log D} analysis split.
func WeightedRing(n int, longWeight float64) *Graph {
	if n < 3 {
		panic("graph: WeightedRing needs n >= 3")
	}
	if longWeight < 1 {
		longWeight = 1
	}
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	g.MustAddEdge(NodeID(n-1), 0, longWeight)
	return g
}

package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/runtime/track"
)

// eps absorbs float64 summation noise in the oracle invariants: landmark
// estimates are sums of independently-rounded Dijkstra distances.
const eps = 1e-9

// oracleFamilies returns the seeded topology families the property suite
// runs over: a grid, a random geometric graph, a random tree, and a
// weighted ring (≥3 families per the contract; RGG instances may be
// disconnected, which the invariants must survive).
type oracleFamily struct {
	name string
	g    *Graph
}

func oracleFamilies() []oracleFamily {
	return []oracleFamily{
		{"grid", Grid(14, 14)},
		{"rgg", RandomGeometric(220, 10, 1.2, rand.New(rand.NewSource(61)))},
		{"tree", RandomTree(250, rand.New(rand.NewSource(62)))},
		{"weightedRing", WeightedRing(120, 7)},
	}
}

// smallOracle builds an Oracle with deliberately tight budgets so most
// far pairs exercise the landmark-estimate path rather than the sketches.
func smallOracle(g *Graph, seed int64, workers int) *Oracle {
	return NewOracle(g, OracleConfig{Landmarks: 5, BallK: 9, Seed: seed, Workers: workers})
}

func TestOracleStretchInvariant(t *testing.T) {
	for _, fam := range oracleFamilies() {
		g := fam.g
		t.Run(fam.name, func(t *testing.T) {
			m := NewMetric(g)
			o := smallOracle(g, 11, 3)
			s := o.Stretch()
			if s < 1 {
				t.Fatalf("stretch %v < 1", s)
			}
			n := g.N()
			for u := 0; u < n; u++ {
				for v := u; v < n; v++ {
					exact := m.Dist(NodeID(u), NodeID(v))
					est := o.Dist(NodeID(u), NodeID(v))
					if math.IsInf(exact, 1) != math.IsInf(est, 1) {
						t.Fatalf("(%d,%d): exact=%v est=%v infinity mismatch", u, v, exact, est)
					}
					if math.IsInf(exact, 1) {
						continue
					}
					if est < exact-eps*(1+exact) {
						t.Fatalf("(%d,%d): est %v below exact %v", u, v, est, exact)
					}
					if est > s*exact+eps*(1+exact) {
						t.Fatalf("(%d,%d): est %v above stretch bound %v·%v", u, v, est, s, exact)
					}
					if back := o.Dist(NodeID(v), NodeID(u)); back != est {
						t.Fatalf("(%d,%d): asymmetric %v vs %v", u, v, est, back)
					}
				}
			}
			if d := o.Dist(0, 0); d != 0 {
				t.Fatalf("Dist(0,0) = %v", d)
			}
		})
	}
}

// TestOracleRelaxedTriangle pins the documented relaxed triangle
// inequality est(u,w) ≤ S·(est(u,v)+est(v,w)): estimates overshoot by at
// most S on the left while the right is at least the exact subpath costs.
func TestOracleRelaxedTriangle(t *testing.T) {
	for _, fam := range oracleFamilies() {
		g := fam.g
		t.Run(fam.name, func(t *testing.T) {
			o := smallOracle(g, 13, 2)
			s := o.Stretch()
			rng := rand.New(rand.NewSource(17))
			n := g.N()
			for i := 0; i < 4000; i++ {
				u, v, w := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				duw := o.Dist(u, w)
				via := o.Dist(u, v) + o.Dist(v, w)
				if math.IsInf(via, 1) {
					continue
				}
				if duw > s*via+eps*(1+via) {
					t.Fatalf("(%d,%d,%d): est(u,w)=%v > %v·(est(u,v)+est(v,w))=%v", u, v, w, duw, s, via)
				}
			}
		})
	}
}

// TestOracleNearExact pins the exactness contract of the local queries:
// Near/Ball/BallSize agree with the exact metric on every implementation,
// for radii both inside and outside the sketch guarantee.
func TestOracleNearExact(t *testing.T) {
	for _, fam := range oracleFamilies() {
		g := fam.g
		t.Run(fam.name, func(t *testing.T) {
			m := NewMetric(g)
			o := smallOracle(g, 19, 4)
			diam := m.Diameter()
			if math.IsInf(diam, 1) {
				diam = 40
			}
			rng := rand.New(rand.NewSource(23))
			radii := []float64{0, 0.5, 1, 2, diam / 4, diam / 2, diam, diam + 1}
			for i := 0; i < 40; i++ {
				u := NodeID(rng.Intn(g.N()))
				for _, r := range radii {
					want := m.Near(u, r)
					got := o.Near(u, r)
					if len(want) != len(got) {
						t.Fatalf("Near(%d,%v): %d vs exact %d nodes", u, r, len(got), len(want))
					}
					for j := range want {
						if want[j].Node != got[j].Node || math.Abs(want[j].D-got[j].D) > eps*(1+want[j].D) {
							t.Fatalf("Near(%d,%v)[%d]: %+v vs exact %+v", u, r, j, got[j], want[j])
						}
					}
					if bs := o.BallSize(u, r); bs != m.BallSize(u, r) {
						t.Fatalf("BallSize(%d,%v) = %d, exact %d", u, r, bs, m.BallSize(u, r))
					}
					wantB, gotB := m.Ball(u, r), o.Ball(u, r)
					if len(wantB) != len(gotB) {
						t.Fatalf("Ball(%d,%v) size %d vs %d", u, r, len(gotB), len(wantB))
					}
					for j := range wantB {
						if wantB[j] != gotB[j] {
							t.Fatalf("Ball(%d,%v)[%d] = %d, exact %d", u, r, j, gotB[j], wantB[j])
						}
					}
				}
			}
		})
	}
}

// TestOracleDisconnected mirrors TestDoublingEstimateDisconnected for the
// oracle path: cross-component distances are +Inf, within-component
// queries stay exact and finite, and nothing hangs or panics. At
// r = +Inf both implementations' balls hold u's component and nothing
// else, so EstimateDoubling, whose last radius doubles to +Inf on a
// disconnected graph, agrees between them.
func TestOracleDisconnected(t *testing.T) {
	g := New(9)
	// Component A: path 0-1-2-3; component B: triangle 4-5-6; 7, 8 isolated.
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(5, 6, 1)
	g.MustAddEdge(4, 6, 1)
	o := NewOracle(g, OracleConfig{Landmarks: 2, BallK: 2, Seed: 5, Workers: 3})
	m := NewMetric(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			exact := m.Dist(NodeID(u), NodeID(v))
			est := o.Dist(NodeID(u), NodeID(v))
			if math.IsInf(exact, 1) {
				if !math.IsInf(est, 1) {
					t.Fatalf("(%d,%d): cross-component est %v, want +Inf", u, v, est)
				}
				continue
			}
			if est < exact-eps || est > o.Stretch()*exact+eps {
				t.Fatalf("(%d,%d): est %v outside [%v, %v·%v]", u, v, est, exact, o.Stretch(), exact)
			}
		}
	}
	if d := o.Diameter(); !math.IsInf(d, 1) {
		t.Fatalf("disconnected Diameter = %v, want +Inf", d)
	}
	if got := o.BallSize(0, 100); got != 4 {
		t.Fatalf("BallSize(0, 100) = %d, want component size 4", got)
	}
	if got := o.BallSize(7, 100); got != 1 {
		t.Fatalf("BallSize(isolated, 100) = %d, want 1", got)
	}
	if nbs := o.Near(8, math.Inf(1)); len(nbs) != 1 || nbs[0].Node != 8 {
		t.Fatalf("Near(isolated, +Inf) = %v", nbs)
	}
	compSize := []int{4, 4, 4, 4, 3, 3, 3, 1, 1}
	inf := math.Inf(1)
	for u, want := range compSize {
		for _, d := range []DistanceOracle{m, o} {
			if got := d.BallSize(NodeID(u), inf); got != want {
				t.Fatalf("%T: BallSize(%d, +Inf) = %d, want component size %d", d, u, got, want)
			}
			if got := len(d.Near(NodeID(u), inf)); got != want {
				t.Fatalf("%T: Near(%d, +Inf) holds %d nodes, want %d", d, u, got, want)
			}
			if got := len(d.Ball(NodeID(u), inf)); got != want {
				t.Fatalf("%T: Ball(%d, +Inf) holds %d nodes, want %d", d, u, got, want)
			}
		}
	}
	if got, want := EstimateDoubling(m, 0), EstimateDoubling(o, 0); got != want {
		t.Fatalf("EstimateDoubling over the Metric %v, over the Oracle %v", got, want)
	}
}

// TestOracleWorkerDeterminism pins byte-level build determinism: any
// worker count yields identical estimates, stretch, and sketches.
func TestOracleWorkerDeterminism(t *testing.T) {
	g := RandomGeometric(180, 9, 1.3, rand.New(rand.NewSource(71)))
	base := smallOracle(g, 29, 1)
	for _, workers := range []int{2, 4, 7, 32} {
		o := smallOracle(g, 29, workers)
		if o.Stretch() != base.Stretch() {
			t.Fatalf("workers=%d: stretch %v vs %v", workers, o.Stretch(), base.Stretch())
		}
		if o.Landmarks() != base.Landmarks() {
			t.Fatalf("workers=%d: %d landmarks vs %d", workers, o.Landmarks(), base.Landmarks())
		}
		for u := 0; u < g.N(); u++ {
			for v := u + 1; v < g.N(); v += 3 {
				if a, b := o.Dist(NodeID(u), NodeID(v)), base.Dist(NodeID(u), NodeID(v)); a != b {
					t.Fatalf("workers=%d: Dist(%d,%d) %v vs %v", workers, u, v, a, b)
				}
			}
			if a, b := o.rsketch[u], base.rsketch[u]; a != b {
				t.Fatalf("workers=%d: rsketch[%d] %v vs %v", workers, u, a, b)
			}
		}
	}
}

// TestOracleConcurrentReads hammers a shared oracle from several
// goroutines — meaningful under -race, where RACE_RUN picks it up.
func TestOracleConcurrentReads(t *testing.T) {
	g := Grid(12, 12)
	o := NewOracle(g, OracleConfig{Landmarks: 4, BallK: 8, Seed: 3, Workers: 4})
	n := g.N()
	var pool track.Group
	for w := 0; w < 6; w++ {
		w := w
		pool.Go(func() {
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 400; i++ {
				u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				if d := o.Dist(u, v); d < 0 {
					panic("negative distance")
				}
				_ = o.Near(u, float64(rng.Intn(8)))
				_ = o.Diameter()
			}
		})
	}
	pool.Wait()
}

// TestOracleQuickSymmetry drives symmetry and non-negativity through
// testing/quick over arbitrary node pairs.
func TestOracleQuickSymmetry(t *testing.T) {
	g := RandomTree(200, rand.New(rand.NewSource(41)))
	o := smallOracle(g, 43, 2)
	n := g.N()
	prop := func(a, b uint16) bool {
		u, v := NodeID(int(a)%n), NodeID(int(b)%n)
		d1, d2 := o.Dist(u, v), o.Dist(v, u)
		return d1 == d2 && d1 >= 0 && (u != v || d1 == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
}

// TestOracleFullySketched: when every node's sketch holds its whole
// component, the oracle is exact and publishes stretch 1.
func TestOracleFullySketched(t *testing.T) {
	g := Grid(5, 5)
	o := NewOracle(g, OracleConfig{Landmarks: 3, BallK: 25, Seed: 7, Workers: 2})
	if s := o.Stretch(); s != 1 {
		t.Fatalf("fully-sketched stretch = %v, want 1", s)
	}
	m := NewMetric(g)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if est, exact := o.Dist(NodeID(u), NodeID(v)), m.Dist(NodeID(u), NodeID(v)); est != exact {
				t.Fatalf("(%d,%d): %v != exact %v", u, v, est, exact)
			}
		}
	}
}

// TestOracleDiameterUpperBound pins the documented Diameter contract:
// an upper bound within a factor 2 of the true diameter.
func TestOracleDiameterUpperBound(t *testing.T) {
	for _, fam := range oracleFamilies() {
		g := fam.g
		t.Run(fam.name, func(t *testing.T) {
			m := NewMetric(g)
			o := smallOracle(g, 53, 3)
			exact := m.Diameter()
			got := o.Diameter()
			if math.IsInf(exact, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("disconnected: oracle Diameter %v, want +Inf", got)
				}
				return
			}
			if got < exact-eps {
				t.Fatalf("oracle Diameter %v below true diameter %v", got, exact)
			}
			if got > 2*exact+eps {
				t.Fatalf("oracle Diameter %v above 2×true %v", got, 2*exact)
			}
		})
	}
}

// TestOracleDiameterEdgeSemantics pins the tiny/disconnected edge of
// the Diameter contract against Metric.Diameter, case by case: 0 only
// for graphs with fewer than two nodes, +Inf the moment a second
// component exists — never 0 for a graph that isn't a point. These are
// exactly the shapes where a zero-landmark-ish accident (empty rows,
// isolated singleton components) could leak a bogus finite bound to
// callers sizing doubling sweeps off it.
func TestOracleDiameterEdgeSemantics(t *testing.T) {
	pair := New(2)
	pair.MustAddEdge(0, 1, 3)
	pathPlusIsolated := New(4)
	pathPlusIsolated.MustAddEdge(0, 1, 1)
	pathPlusIsolated.MustAddEdge(1, 2, 1)
	twoComponents := New(5)
	twoComponents.MustAddEdge(0, 1, 2)
	twoComponents.MustAddEdge(2, 3, 1)
	twoComponents.MustAddEdge(3, 4, 1)
	for _, tc := range []struct {
		name string
		g    *Graph
		want float64
	}{
		{"empty", New(0), 0},
		{"singleton", New(1), 0},
		{"two isolated", New(2), math.Inf(1)},
		{"single edge", pair, 6}, // 2·ecc of either endpoint
		{"path plus isolated", pathPlusIsolated, math.Inf(1)},
		{"two components", twoComponents, math.Inf(1)},
		{"all isolated", New(5), math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 9, 42} {
				o := NewOracle(tc.g, OracleConfig{Landmarks: 2, BallK: 2, Seed: seed})
				got := o.Diameter()
				if math.IsInf(tc.want, 1) {
					if !math.IsInf(got, 1) {
						t.Fatalf("seed %d: Diameter = %v, want +Inf", seed, got)
					}
				} else if tc.want == 0 {
					if got != 0 {
						t.Fatalf("seed %d: Diameter = %v, want 0", seed, got)
					}
				} else if got < tc.want/2-eps || got > tc.want+eps {
					// A 2·ecc bound on a connected graph: within [D, 2D].
					t.Fatalf("seed %d: Diameter = %v, want in [%v,%v]", seed, got, tc.want/2, tc.want)
				}
				// The exact metric must agree on every finite/Inf/zero class.
				exact := NewMetric(tc.g).Diameter()
				if math.IsInf(exact, 1) != math.IsInf(got, 1) || (exact == 0) != (got == 0) {
					t.Fatalf("seed %d: oracle %v vs metric %v disagree on edge class", seed, got, exact)
				}
			}
		})
	}
}

// TestOracleMetricInterchange pins the two implementations behind the
// shared interface: Metric reports stretch 1, Near agrees with Ball and
// BallSize, and EstimateDoubling gives the same estimate over the Metric
// and the Oracle of one grid.
func TestOracleMetricInterchange(t *testing.T) {
	g := Grid(8, 8)
	m := NewMetric(g)
	var exact DistanceOracle = m
	if s := exact.Stretch(); s != 1 {
		t.Fatalf("Metric stretch = %v", s)
	}
	o := smallOracle(g, 3, 1)
	if got, want := EstimateDoubling(o, 16), EstimateDoubling(m, 16); got != want || got <= 0 {
		t.Fatalf("EstimateDoubling over the Oracle %v, over the Metric %v", got, want)
	}
	nbs := exact.Near(0, 2)
	ball := exact.Ball(0, 2)
	if len(nbs) != len(ball) || len(nbs) != exact.BallSize(0, 2) {
		t.Fatalf("Near/Ball/BallSize disagree: %d/%d/%d", len(nbs), len(ball), exact.BallSize(0, 2))
	}
	for i := range nbs {
		if nbs[i].Node != ball[i] {
			t.Fatalf("Near[%d]=%d, Ball[%d]=%d", i, nbs[i].Node, i, ball[i])
		}
	}
}

// TestOracleTinyGraphs exercises the degenerate sizes.
func TestOracleTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		g := New(n)
		if n == 2 {
			g.MustAddEdge(0, 1, 3)
		}
		o := NewOracle(g, OracleConfig{Seed: 1})
		if s := o.Stretch(); s != 1 {
			t.Fatalf("n=%d: stretch %v", n, s)
		}
		if n == 2 {
			if d := o.Dist(0, 1); d != 3 {
				t.Fatalf("Dist(0,1) = %v", d)
			}
			if d := o.Diameter(); d < 3 || d > 6 {
				t.Fatalf("Diameter = %v, want in [3,6]", d)
			}
		}
	}
}

// TestOracleBallSizeMatchesNear cross-checks the count-only BallSize
// against the materializing Near on every family, over radii that hit
// both the sketch path and the bounded-Dijkstra fallback.
func TestOracleBallSizeMatchesNear(t *testing.T) {
	for _, fam := range oracleFamilies() {
		o := smallOracle(fam.g, 77, 1)
		diam := o.Diameter()
		for _, r := range []float64{0, 0.5, 1, 2, diam / 2, diam, diam * 2} {
			for u := 0; u < fam.g.N(); u += 17 {
				got := o.BallSize(NodeID(u), r)
				want := len(o.Near(NodeID(u), r))
				if got != want {
					t.Fatalf("%s: BallSize(%d, %v) = %d, Near gives %d", fam.name, u, r, got, want)
				}
			}
		}
	}
}

// TestOracleHotPathZeroAllocs pins the //motlint:hotpath contract
// dynamically: Dist and BallSize (sketch path and pooled-scratch
// fallback alike) allocate nothing per call once the scratch pool has
// warmed to the working ball size, and neither does a PairSearch.Dist on
// far pairs once its scratch has warmed to the largest search.
func TestOracleHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain tier")
	}
	g := Grid(12, 12)
	o := smallOracle(g, 5, 1)
	ps := NewPairSearch(g)
	n := g.N()
	diam := o.Diameter()
	o.BallSize(0, diam) // warm the pooled scratch to the largest ball
	for u := 0; u < n; u++ {
		ps.Dist(NodeID(u), NodeID(n-1-u)) // warm the search on every far pair below
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		u := NodeID(i % n)
		v := NodeID((i * 29) % n)
		_ = o.Dist(u, v)
		_ = o.BallSize(u, 0.5)  // sketch path
		_ = o.BallSize(u, diam) // bounded-Dijkstra fallback
		_ = ps.Dist(u, NodeID(n-1)-u)
		i++
	}); allocs != 0 {
		t.Fatalf("oracle Dist/BallSize and PairSearch.Dist allocate %v per op, want 0", allocs)
	}
}

// decodeFuzzGraph turns fuzz input into a small weighted graph: byte 0
// seeds the oracle, byte 1 sizes the graph (1 + b mod 48 nodes), and
// each following triple (a, b, c) adds the edge {a mod n, b mod n} with
// weight (c mod 255 + 1)·16/255 ∈ (0, 16]. Self loops and duplicates
// are skipped, so any input decodes; most leave the graph disconnected.
func decodeFuzzGraph(data []byte) (*Graph, int64, bool) {
	if len(data) < 2 {
		return nil, 0, false
	}
	n := 1 + int(data[1])%48
	g := New(n)
	for i := 2; i+2 < len(data); i += 3 {
		u, v := NodeID(int(data[i])%n), NodeID(int(data[i+1])%n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, float64(int(data[i+2])%255+1)*16/255)
	}
	return g, int64(data[0]), true
}

// encodeFuzzGraph is decodeFuzzGraph's inverse up to weight rounding,
// for seeding the corpus from the generator families.
func encodeFuzzGraph(g *Graph, seed byte) []byte {
	data := []byte{seed, byte(g.N() - 1)}
	for _, e := range g.Edges() {
		c := math.Max(0, math.Min(254, math.Round(e.Weight*255/16)-1))
		data = append(data, byte(e.From), byte(e.To), byte(c))
	}
	return data
}

// FuzzOracleSandwich checks the DistanceOracle contract on fuzzed small
// weighted graphs against PairSearch's exact distances: for every pair,
// exact ≤ Dist ≤ Stretch()·exact, Dist is +Inf exactly when the exact
// distance is, and Dist is symmetric; Near(u, r) is the exact ball for
// radii inside and outside u's sketch radius. The seed corpus (the four
// family shapes plus a disconnected graph) runs under go test; longer
// fuzzing is opt-in:
//
//	go test ./internal/graph -run '^$' -fuzz FuzzOracleSandwich -fuzztime 1m
func FuzzOracleSandwich(f *testing.F) {
	for i, g := range []*Graph{
		Grid(6, 8),
		RandomGeometric(40, 4.3, 1.2, rand.New(rand.NewSource(61))),
		RandomTree(48, rand.New(rand.NewSource(62))),
		WeightedRing(40, 7),
		rescaled(Grid(6, 8), 0.3, rand.New(rand.NewSource(65))),
	} {
		f.Add(encodeFuzzGraph(g, byte(i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, seed, ok := decodeFuzzGraph(data)
		if !ok {
			return
		}
		n := g.N()
		o := smallOracle(g, seed, 1)
		s := o.Stretch()
		ps := NewPairSearch(g)
		exact := make([][]float64, n)
		for u := range exact {
			exact[u] = make([]float64, n)
			for v := range exact[u] {
				exact[u][v] = ps.Dist(NodeID(u), NodeID(v))
			}
		}
		for u := 0; u < n; u++ {
			far := 0.0
			for v, ex := range exact[u] {
				est := o.Dist(NodeID(u), NodeID(v))
				if math.IsInf(ex, 1) != math.IsInf(est, 1) {
					t.Fatalf("(%d,%d): exact=%v est=%v infinity mismatch", u, v, ex, est)
				}
				if back := o.Dist(NodeID(v), NodeID(u)); back != est {
					t.Fatalf("(%d,%d): asymmetric %v vs %v", u, v, est, back)
				}
				if math.IsInf(ex, 1) {
					continue
				}
				if est < ex-eps*(1+ex) || est > s*ex+eps*(1+ex) {
					t.Fatalf("(%d,%d): est %v outside [%v, %v·%v]", u, v, est, ex, s, ex)
				}
				far = math.Max(far, ex)
			}
			radii := []float64{0, 1, far / 2, far, far + 1}
			if r := o.rsketch[u]; !math.IsInf(r, 1) {
				radii = append(radii, r/2, r, 1.5*r)
			}
			for _, r := range radii {
				var want []Neighbor
				for v, ex := range exact[u] {
					if ex <= r {
						want = append(want, Neighbor{Node: NodeID(v), D: ex})
					}
				}
				got := o.Near(NodeID(u), r)
				if len(got) != len(want) {
					t.Fatalf("Near(%d,%v): %d nodes, exact ball has %d", u, r, len(got), len(want))
				}
				for j := range want {
					if got[j].Node != want[j].Node || math.Abs(got[j].D-want[j].D) > eps*(1+want[j].D) {
						t.Fatalf("Near(%d,%v)[%d] = %+v, exact %+v", u, r, j, got[j], want[j])
					}
				}
			}
		}
	})
}

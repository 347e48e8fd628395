package graph

// Tests for the frozen flat APSP table and the disconnected-graph
// behavior of the metric layer: the EstimateDoubling termination
// regression, Dist range-check consistency, frozen-vs-lazy equivalence
// (including disconnected inputs), and the lock-free zero-allocation
// read contract.

import (
	"math"
	"math/rand"
	"testing"
)

// twoComponents returns a graph whose nodes split into a path component
// and a ring component with no edges between them.
func twoComponents(pathN, ringN int) *Graph {
	g := New(pathN + ringN)
	for i := 0; i < pathN-1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	for i := 0; i < ringN; i++ {
		g.MustAddEdge(NodeID(pathN+i), NodeID(pathN+(i+1)%ringN), 1)
	}
	return g
}

// TestDoublingEstimateDisconnected is the regression test for the
// non-termination bug: with a disconnected graph Diameter() is +Inf, and
// the radius sweep `for r := 1.0; r <= diam; r *= 2` saturated r at +Inf
// and never exited. The fixed sweep stops once a ball covers the graph
// or r leaves the finite range; without the fix this test hangs and
// fails by timeout.
func TestDoublingEstimateDisconnected(t *testing.T) {
	g := twoComponents(5, 4)
	m := NewMetric(g)
	rho := EstimateDoubling(m, 0)
	if math.IsInf(rho, 1) || math.IsNaN(rho) || rho < 0 {
		t.Fatalf("EstimateDoubling on disconnected graph = %v, want finite non-negative", rho)
	}
	// Sanity: the same components joined by an edge give a finite rho too,
	// and the disconnected estimate stays in a plausible range.
	if rho > 10 {
		t.Fatalf("EstimateDoubling = %v, implausibly large for 9 nodes", rho)
	}
}

func TestDiameterDisconnectedCached(t *testing.T) {
	g := twoComponents(3, 3)
	m := NewMetric(g)
	if d := m.Diameter(); !math.IsInf(d, 1) {
		t.Fatalf("Diameter of disconnected graph = %v, want +Inf", d)
	}
	// Second call hits the cached value.
	if d := m.Diameter(); !math.IsInf(d, 1) {
		t.Fatalf("cached Diameter = %v, want +Inf", d)
	}
	if !m.Frozen() {
		t.Fatal("Diameter should freeze the metric")
	}
}

// TestDistOutOfRangeConsistent pins the validation fix: Dist used to
// short-circuit u == v before any range check, so Dist(-5, -5) silently
// returned 0 while Dist(-5, 0) panicked. Both must now panic, frozen or
// not.
func TestDistOutOfRangeConsistent(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, frozen := range []bool{false, true} {
		m := NewMetric(Path(4))
		if frozen {
			m.Precompute(0)
		}
		mustPanic("Dist(-5,-5)", func() { m.Dist(-5, -5) })
		mustPanic("Dist(-5,0)", func() { m.Dist(-5, 0) })
		mustPanic("Dist(0,99)", func() { m.Dist(0, 99) })
		mustPanic("Dist(99,99)", func() { m.Dist(99, 99) })
		mustPanic("Row(-1)", func() { m.Row(-1) })
		if d := m.Dist(2, 2); d != 0 {
			t.Fatalf("Dist(2,2) = %v, want 0", d)
		}
	}
}

// TestFrozenMatchesLazy is the equivalence property test: for random
// geometric graphs, random trees, and disconnected unions, a frozen
// metric must agree with a lazy one on Dist, Row, Ball, BallSize,
// Eccentricity, and Diameter — including the +Inf entries between
// components.
func TestFrozenMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		g    *Graph
	}{
		{"geometric", RandomGeometric(40, 1, 0.3, rng)},
		{"tree", RandomTree(40, rng)},
		{"two-components", twoComponents(7, 6)},
		{"singleton", New(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy := NewMetric(tc.g)
			frozen := NewMetric(tc.g)
			frozen.Precompute(0)
			if !frozen.Frozen() {
				t.Fatal("Precompute did not freeze")
			}
			n := tc.g.N()
			for u := 0; u < n; u++ {
				lrow, frow := lazy.Row(NodeID(u)), frozen.Row(NodeID(u))
				for v := 0; v < n; v++ {
					if lrow[v] != frow[v] && !(math.IsInf(lrow[v], 1) && math.IsInf(frow[v], 1)) {
						t.Fatalf("Row(%d)[%d]: lazy %v vs frozen %v", u, v, lrow[v], frow[v])
					}
					if ld, fd := lazy.Dist(NodeID(u), NodeID(v)), frozen.Dist(NodeID(u), NodeID(v)); ld != fd && !(math.IsInf(ld, 1) && math.IsInf(fd, 1)) {
						t.Fatalf("Dist(%d,%d): lazy %v vs frozen %v", u, v, ld, fd)
					}
				}
				for _, r := range []float64{0, 1, 2.5, 100} {
					lb, fb := lazy.Ball(NodeID(u), r), frozen.Ball(NodeID(u), r)
					if len(lb) != len(fb) {
						t.Fatalf("Ball(%d,%v): lazy %v vs frozen %v", u, r, lb, fb)
					}
					for i := range lb {
						if lb[i] != fb[i] {
							t.Fatalf("Ball(%d,%v)[%d]: lazy %v vs frozen %v", u, r, i, lb[i], fb[i])
						}
					}
					if ls, fs := lazy.BallSize(NodeID(u), r), frozen.BallSize(NodeID(u), r); ls != fs || ls != len(lb) {
						t.Fatalf("BallSize(%d,%v): lazy %d, frozen %d, |Ball| %d", u, r, ls, fs, len(lb))
					}
				}
				le, fe := lazy.Eccentricity(NodeID(u)), frozen.Eccentricity(NodeID(u))
				if le != fe && !(math.IsInf(le, 1) && math.IsInf(fe, 1)) {
					t.Fatalf("Eccentricity(%d): lazy %v vs frozen %v", u, le, fe)
				}
			}
			ld, fd := lazy.Diameter(), frozen.Diameter()
			if ld != fd && !(math.IsInf(ld, 1) && math.IsInf(fd, 1)) {
				t.Fatalf("Diameter: lazy %v vs frozen %v", ld, fd)
			}
			if tc.name == "two-components" && !math.IsInf(fd, 1) {
				t.Fatalf("disconnected Diameter = %v, want +Inf", fd)
			}
		})
	}
}

// TestPathToNilAcrossComponents checks SSSP path reconstruction returns
// nil (not garbage) for unreachable targets.
func TestPathToNilAcrossComponents(t *testing.T) {
	g := twoComponents(4, 3)
	res := g.Dijkstra(0)
	if p := res.PathTo(5); p != nil {
		t.Fatalf("PathTo across components = %v, want nil", p)
	}
	if p := res.PathTo(3); len(p) != 4 {
		t.Fatalf("PathTo(3) = %v, want the 4-node path", p)
	}
}

// TestAutoFreezeOnFullFill checks that purely lazy use freezes the
// metric once the last row is computed, after which reads are lock-free.
func TestAutoFreezeOnFullFill(t *testing.T) {
	g := Ring(6)
	m := NewMetric(g)
	for u := 0; u < g.N()-1; u++ {
		m.Row(NodeID(u))
		if m.Frozen() {
			t.Fatalf("frozen after only %d of %d rows", u+1, g.N())
		}
	}
	m.Row(NodeID(g.N() - 1))
	if !m.Frozen() {
		t.Fatal("not frozen after all rows were computed lazily")
	}
	if d := m.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3) on ring = %v, want 3", d)
	}
}

// TestFrozenDistZeroAllocs pins the acceptance criterion: frozen-path
// Dist (and Row) allocate nothing.
func TestFrozenDistZeroAllocs(t *testing.T) {
	g := Grid(8, 8)
	m := NewMetric(g)
	m.Precompute(0)
	n := g.N()
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		u := NodeID(i % n)
		v := NodeID((i * 13) % n)
		_ = m.Dist(u, v)
		_ = m.Row(u)
		i++
	}); allocs != 0 {
		t.Fatalf("frozen Dist/Row allocate %v per op, want 0", allocs)
	}
}

// TestPrecomputeReusesLazyRows checks that rows cached before Precompute
// survive into the frozen table unchanged.
func TestPrecomputeReusesLazyRows(t *testing.T) {
	g := Grid(4, 4)
	m := NewMetric(g)
	want := append([]float64(nil), m.Row(5)...)
	m.Precompute(2)
	got := m.Row(5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row 5 entry %d changed across freeze: %v vs %v", i, want[i], got[i])
		}
	}
	m.Precompute(0) // idempotent on a frozen metric
	if !m.Frozen() {
		t.Fatal("metric not frozen after Precompute")
	}
}

func TestEmptyGraphMetric(t *testing.T) {
	m := NewMetric(New(0))
	m.Precompute(0)
	if d := m.Diameter(); d != 0 {
		t.Fatalf("empty-graph Diameter = %v, want 0", d)
	}
	if rho := EstimateDoubling(m, 4); rho != 0 {
		t.Fatalf("empty-graph EstimateDoubling = %v, want 0", rho)
	}
}

// BenchmarkMetricDistFrozen pins the lock-free frozen read path; run
// with -benchmem to see the 0 allocs/op.
func BenchmarkMetricDistFrozen(b *testing.B) {
	g := Grid(32, 32)
	m := NewMetric(g)
	m.Precompute(0)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += m.Dist(NodeID(i%n), NodeID((i*31)%n))
	}
	benchSink = acc
}

// BenchmarkMetricDistLazy measures the pre-freeze RWMutex+map path for
// comparison; it touches only a few source rows so the metric never
// auto-freezes.
func BenchmarkMetricDistLazy(b *testing.B) {
	g := Grid(32, 32)
	m := NewMetric(g)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += m.Dist(NodeID(i%8), NodeID((i*31)%n))
	}
	benchSink = acc
}

var benchSink float64

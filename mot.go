// Package mot is a Go implementation of MOT — "Mobile Object Tracking
// using Sensors" — the distributed, traffic-oblivious, load-balanced
// location-tracking algorithm of Sharma, Krishnan, Busch, and Brandt
// ("Near-Optimal Location Tracking Using Sensor Networks", IPDPS workshops
// 2014 / IJNC 2015), together with every substrate its evaluation needs:
//
//   - the hierarchical overlay HS over constant-doubling sensor networks
//     (nested maximal independent sets, parent sets, detection paths,
//     special parents) and the (O(log n), O(log n)) sparse-partition
//     overlay for general networks;
//   - the MOT directory (detection lists / special detection lists with
//     publish, maintenance, and query operations) with exact
//     communication-cost metering against the optimal costs;
//   - §5 load balancing (per-cluster de Bruijn embeddings with hashed
//     entry placement) and §7 dynamics (cluster join/leave);
//   - the traffic-conscious baselines the paper compares against — STUN
//     (Kung & Vlah) and Z-DAT with and without shortcuts (Lin et al.) —
//     on a shared message-pruning tree engine;
//   - a discrete-event simulator for concurrent executions, a live
//     message-passing runtime whose operations walk station to station
//     on the caller's goroutine, and harnesses that regenerate every
//     figure of the paper's evaluation (Figs. 4–15).
//
// Quickstart:
//
//	g := mot.Grid(16, 16)
//	tr, err := mot.NewTracker(g, mot.Options{Seed: 1})
//	if err != nil { ... }
//	tr.Publish(1, 0)        // object 1 appears at sensor 0
//	tr.Move(1, 16)          // it moves to an adjacent sensor
//	proxy, cost, err := tr.Query(255, 1)
//
// See DESIGN.md for the system inventory and the per-figure experiment
// index, and EXPERIMENTS.md for reproduction results.
package mot

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// NodeID identifies a sensor node (0..N-1).
type NodeID = graph.NodeID

// Undefined is the sentinel for "no node".
const Undefined = graph.Undefined

// ObjectID identifies a tracked mobile object.
type ObjectID = core.ObjectID

// Graph is the weighted sensor-network graph G = (V, E, w).
type Graph = graph.Graph

// Metric is a shortest-path distance oracle over a Graph.
type Metric = graph.Metric

// Point is a planar sensor position.
type Point = graph.Point

// CostMeter accumulates operation costs and optimal costs; see its methods
// MaintRatio, QueryRatio, MaintMeanRatio, and QueryMeanRatio.
type CostMeter = core.CostMeter

// Workload is a reproducible movement-and-query workload.
type Workload = mobility.Workload

// QueryResult records one completed query in a concurrent simulation.
type QueryResult = sim.QueryResult

// NewGraph returns an empty graph with n sensors; add edges with AddEdge.
func NewGraph(n int) *Graph { return graph.New(n) }

// Grid returns a w×h unit grid network, the paper's evaluation topology.
func Grid(w, h int) *Graph { return graph.Grid(w, h) }

// NearSquareGrid returns a grid with at least n sensors, as square as
// possible.
func NearSquareGrid(n int) *Graph { return graph.NearSquareGrid(n) }

// Ring returns an n-cycle — the topology where spanning-tree trackers pay
// Θ(D) cost ratios.
func Ring(n int) *Graph { return graph.Ring(n) }

// NewMetric returns a lazy all-pairs shortest-path oracle for g; g must not
// be mutated afterwards.
func NewMetric(g *Graph) *Metric { return graph.NewMetric(g) }

// NewFrozenMetric returns the oracle with the full all-pairs table
// already computed and frozen: every subsequent Dist/Row/Ball read is
// lock-free and allocation-free, and the metric can be shared freely
// across goroutines (long-lived trackers and sweep harnesses want this;
// one-shot small-graph uses can stay lazy with NewMetric).
func NewFrozenMetric(g *Graph) *Metric {
	m := graph.NewMetric(g)
	m.Precompute(0)
	return m
}

// RandomGeometricGraph scatters n sensors uniformly over a side×side field
// and connects pairs within the radio radius (weights are Euclidean
// distances, normalized); it retries with a grown radius until connected.
func RandomGeometricGraph(n int, side, radius float64, rng *rand.Rand) *Graph {
	return graph.RandomGeometric(n, side, radius, rng)
}

// RandomTreeGraph returns a uniformly random labeled tree on n sensors with
// unit-weight links — a pathological general-network input (high doubling
// dimension at the root).
func RandomTreeGraph(n int, rng *rand.Rand) *Graph {
	return graph.RandomTree(n, rng)
}

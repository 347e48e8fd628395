package mot

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/overlay"
	"repro/internal/partition"
)

// Options configures a Tracker.
type Options struct {
	// Seed drives the overlay construction (the greedy MIS priorities of
	// the churn-repairable HS hierarchy, Luby's MIS under LoadBalance);
	// equal seeds over equal graphs give identical hierarchies.
	Seed int64
	// GeneralOverlay builds the §6 sparse-partition hierarchy instead of
	// the constant-doubling HS — use it for topologies without a small
	// doubling dimension.
	GeneralOverlay bool
	// UseParentSets makes operations probe every parent-set station per
	// level (§3.1) instead of only the default-parent chain. It buys the
	// Lemma 2.1 meeting levels at a constant-factor cost increase.
	UseParentSets bool
	// SpecialParentOffset is sigma of Definition 3: special parents sit
	// sigma levels above their registrants. 0 derives the theoretical
	// value; negative disables special parents; experiments use 2.
	SpecialParentOffset int
	// LoadBalance enables §5: directory entries hash across each
	// station's cluster over an embedded de Bruijn graph, bounding the
	// per-node load at an O(log n) routing surcharge (Corollary 5.2).
	LoadBalance bool
	// CountSpecialParentCost folds SDL maintenance messages into the
	// maintenance cost (the paper reports them separately).
	CountSpecialParentCost bool
	// CountLBRouteCost folds the load-balancing routing surcharge into
	// operation costs (Corollary 5.2 pricing); by default it is metered
	// separately in CostMeter.LBRouteCost, mirroring the paper's
	// treatment of auxiliary traffic.
	CountLBRouteCost bool
	// CountReply adds the result-return message to query costs.
	CountReply bool
	// Chaos enables deterministic fault injection. On a Distributed
	// tracker it installs drop/delay faults on every message (crashes are
	// driven explicitly via Crash/Recover); on the sequential Tracker,
	// whose operations are instantaneous, it configures the recovery
	// policy (ChurnThreshold, RebuildEachEvent) for FailNode/RecoverNode.
	// Nil disables faults entirely.
	Chaos *ChaosConfig
	// Obs receives a span per operation plus per-node and per-level
	// metrics (see internal/obs). Nil — the default — disables
	// observability; instrumented paths then cost one pointer test.
	// Exports are deterministic: see NewRecorder and the Write* methods.
	Obs *Recorder
}

// Tracker is the public handle to a MOT directory over a sensor network:
// it owns the overlay hierarchy and the detection-list state and meters
// every operation's communication cost.
type Tracker struct {
	g   *Graph
	m   *Metric // exact metric when built through NewTracker[WithMetric], else nil
	dm  graph.DistanceOracle
	ov  overlay.Overlay
	dir *core.Directory

	// eng is the §7 churn engine (it owns ov and dir); nil on
	// GeneralOverlay and LoadBalance trackers, whose overlays cannot be
	// repaired in place.
	eng *dynamics.Engine

	// chaosMu serializes churn events (dynamics.go).
	chaosMu sync.Mutex
}

// NewTracker builds the overlay over g (which must be connected) and an
// empty directory on top of it.
func NewTracker(g *Graph, opt Options) (*Tracker, error) {
	m := graph.NewMetric(g)
	return NewTrackerWithMetric(g, m, opt)
}

// NewTrackerWithMetric is NewTracker reusing an existing metric oracle
// (useful when several trackers share one network).
func NewTrackerWithMetric(g *Graph, m *Metric, opt Options) (*Tracker, error) {
	t, err := NewTrackerWithOracle(g, m, opt)
	if err != nil {
		return nil, err
	}
	t.m = m
	return t, nil
}

// hierConfig maps the facade options onto the HS overlay configuration.
func hierConfig(opt Options) hier.Config {
	return hier.Config{
		Seed:                opt.Seed,
		UseParentSets:       opt.UseParentSets,
		SpecialParentOffset: opt.SpecialParentOffset,
	}
}

// NewTrackerWithOracle builds the tracker over any routing-grade distance
// oracle — e.g. graph.NewOracle's sub-quadratic substrate for networks
// where the O(n²) exact metric is unaffordable. Metric() returns nil on
// such trackers; everything else behaves identically.
func NewTrackerWithOracle(g *Graph, dm graph.DistanceOracle, opt Options) (*Tracker, error) {
	cfg := core.Config{
		CountSpecialParentCost: opt.CountSpecialParentCost,
		CountLBRouteCost:       opt.CountLBRouteCost,
		CountReply:             opt.CountReply,
		Obs:                    opt.Obs,
	}
	if !opt.GeneralOverlay && !opt.LoadBalance {
		ecfg := dynamics.Config{Hier: hierConfig(opt), Core: cfg}
		if opt.Chaos != nil {
			ecfg.ChurnThreshold = opt.Chaos.ChurnThreshold
			ecfg.RebuildEachEvent = opt.Chaos.RebuildEachEvent
		}
		eng, err := dynamics.New(g, dm, ecfg)
		if err != nil {
			return nil, fmt.Errorf("mot: building HS overlay: %w", err)
		}
		return &Tracker{g: g, dm: dm, ov: eng.Overlay(), dir: eng.Directory(), eng: eng}, nil
	}
	var ov overlay.Overlay
	if opt.GeneralOverlay {
		hs, err := partition.Build(g, dm, partition.Config{SpecialParentOffset: opt.SpecialParentOffset})
		if err != nil {
			return nil, fmt.Errorf("mot: building sparse-partition overlay: %w", err)
		}
		ov = hs
	} else {
		hs, err := hier.Build(g, dm, hierConfig(opt))
		if err != nil {
			return nil, fmt.Errorf("mot: building HS overlay: %w", err)
		}
		ov = hs
	}
	if opt.LoadBalance {
		cfg.Placement = lb.New(ov)
	}
	return &Tracker{g: g, dm: dm, ov: ov, dir: core.New(ov, cfg)}, nil
}

// Graph returns the underlying network.
func (t *Tracker) Graph() *Graph { return t.g }

// Metric returns the exact shortest-path oracle, or nil when the tracker
// was built over an approximate substrate via NewTrackerWithOracle.
func (t *Tracker) Metric() *Metric { return t.m }

// Publish introduces object o at sensor node at; each object is published
// exactly once, before any Move or Query for it.
func (t *Tracker) Publish(o ObjectID, at NodeID) error { return t.dir.Publish(o, at) }

// Move records that object o moved to sensor node to, updating the
// detection trails (a maintenance operation). Moving to the current proxy
// is a free no-op.
func (t *Tracker) Move(o ObjectID, to NodeID) error { return t.dir.Move(o, to) }

// Query locates object o from sensor node from; it returns the proxy node
// currently detecting o and the communication cost of the search.
func (t *Tracker) Query(from NodeID, o ObjectID) (NodeID, float64, error) {
	return t.dir.Query(from, o)
}

// Location returns o's current proxy without any communication.
func (t *Tracker) Location(o ObjectID) (NodeID, bool) { return t.dir.Location(o) }

// Objects lists all published objects.
func (t *Tracker) Objects() []ObjectID { return t.dir.Objects() }

// Meter returns a snapshot of the accumulated cost counters.
func (t *Tracker) Meter() CostMeter { return t.dir.Meter() }

// ResetMeter zeroes the cost counters (e.g. after a warmup phase).
func (t *Tracker) ResetMeter() { t.dir.ResetMeter() }

// LoadByNode returns each sensor's storage load (detection-list entries,
// SDL entries, and proxied objects) under the configured placement — the
// §5 load metric.
func (t *Tracker) LoadByNode() []int { return t.dir.LoadByNode(t.g.N()) }

// CheckInvariants validates the directory's global consistency (tests and
// long-running deployments can call it at quiescent points).
func (t *Tracker) CheckInvariants() error { return t.dir.CheckInvariants() }

// ObserveLoad snapshots the current per-node storage load into the
// tracker's recorder (Options.Obs) as the node.entries series; a no-op
// without a recorder.
func (t *Tracker) ObserveLoad() { t.dir.ObserveLoad(t.g.N()) }

// OverlayHeight returns the number of levels (h) of the built hierarchy.
func (t *Tracker) OverlayHeight() int { return t.ov.Height() }

// RootNode returns the physical sensor hosting the hierarchy root (the
// sink in a real deployment).
func (t *Tracker) RootNode() NodeID { return t.ov.Root().Host }

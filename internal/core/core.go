// Package core implements the MOT directory (Algorithm 1 of the paper): the
// detection lists (DL) and special detection lists (SDL) maintained at the
// stations of a hierarchical overlay, and the publish, maintenance
// (insert + delete), and query operations over them, with communication-cost
// metering against the optimal costs.
//
// Algorithm 1 lives here once, as the per-station Handler (handler.go).
// Directory drives it one operation at a time (the paper's "one by one
// case", §4.1.1); the discrete-event simulator in internal/sim drives the
// same handler for the concurrent case, and the message-passing runtime in
// internal/runtime drives it with operations that walk station to station
// on the caller's goroutine.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// ObjectID identifies a distinct mobile object (the paper's o_1..o_m).
type ObjectID int

// lbThreshold is the detection-list size at which a station starts
// distributing its entries across its cluster ("the load balancing
// procedure of MOT kicks in when a maintenance operation floods the
// detection list of an internal node", §8). Stations below it keep
// entries local and pay no routing surcharge. 4 sits well under the
// load-10 bound the paper's Figs. 8–11 highlight, since one sensor hosts
// several stations.
const lbThreshold = 4

// Config controls directory behavior.
type Config struct {
	// CountSpecialParentCost folds SDL registration/cleanup messages into
	// the maintenance cost. The paper's analysis excludes this cost (a
	// constant-factor increase in constant-doubling networks, §4); when
	// false it is still incurred and reported separately in the meter.
	CountSpecialParentCost bool
	// Placement distributes the storage of DL/SDL entries across physical
	// nodes (§5 load balancing). Nil means entries live on the station's
	// own host.
	Placement Placement
	// CountLBRouteCost folds the intra-cluster routing surcharge into the
	// operation costs (the Corollary 5.2 cost model). Like the
	// special-parent cost, the paper's reported ratios treat it as a
	// separate constant/logarithmic factor, so it is metered separately
	// (CostMeter.LBRouteCost) by default.
	CountLBRouteCost bool
	// CountReply adds the result-return message (proxy back to the
	// requester) to the query cost. The paper's query cost analysis covers
	// the search walk; off by default.
	CountReply bool
	// Obs receives a span per operation plus per-node/per-level metrics.
	// Nil (the default) disables observability; instrumented paths then
	// pay one pointer test per hook (see internal/obs).
	Obs *obs.Recorder
	// ExactSampleEvery enables sampled exact re-metering: roughly one in
	// this many move/query operations (chosen by a seeded hash of the
	// operation index) has its distance terms re-measured with exact
	// point-to-point searches (graph.PairSearch, an A* over the landmark
	// table when the metric is a *graph.Oracle), filling the
	// CostMeter.Sampled* fields. Zero disables sampling. Only useful when
	// the overlay runs on an approximate oracle — on the exact metric the
	// sampled Est and Exact fields coincide.
	ExactSampleEvery int
	// ExactSampleSeed seeds the operation-sampling hash.
	ExactSampleSeed int64
}

// Directory is the MOT tracking structure over an overlay.
type Directory struct {
	mu  sync.Mutex
	cfg Config

	h     *Handler                  // slot store, per-station rules, meter
	loc   map[ObjectID]graph.NodeID // ground-truth proxy of each object
	moves uint64                    // each move stamps the next version

	// Sampled exact re-metering state (see sample.go): the exact search,
	// the move/query operation counter the sampling hash keys on, and the
	// in-flight operation's accumulators.
	sampler    *graph.PairSearch
	sampOps    uint64
	sampActive bool
	sampEst    float64
	sampExact  float64

	// Observability state (see obs.go): operation counter, cumulative-cost
	// logical clock, and the span of the operation in flight.
	obsOp  uint64
	obsNow float64
	obsCur obs.Span
}

// New creates an empty directory over the overlay. Objects must be
// introduced with Publish before they can be moved or queried.
func New(ov overlay.Overlay, cfg Config) *Directory {
	d := &Directory{
		cfg: cfg,
		h:   NewHandler(ov, cfg),
		loc: make(map[ObjectID]graph.NodeID),
	}
	if cfg.ExactSampleEvery > 0 {
		if o, ok := d.h.m.(*graph.Oracle); ok {
			d.sampler = o.PairSearch()
		} else {
			d.sampler = graph.NewPairSearch(d.h.m.Graph())
		}
	}
	return d
}

// Overlay returns the overlay the directory runs on (mu-guarded since
// SwapOverlay can replace it after a churn rebuild).
func (d *Directory) Overlay() overlay.Overlay {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.ov
}

// Meter returns a snapshot of the accumulated cost counters.
func (d *Directory) Meter() CostMeter {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.Meter
}

// ResetMeter zeroes the cost counters (e.g. after warmup).
func (d *Directory) ResetMeter() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.h.Meter = CostMeter{}
}

// Location returns the current proxy of o.
func (d *Directory) Location(o ObjectID) (graph.NodeID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.loc[o]
	return v, ok
}

// Objects returns the IDs of all published objects, sorted.
func (d *Directory) Objects() []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ObjectID, 0, len(d.loc))
	for o := range d.loc {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *Directory) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("mot.Directory{objects=%d slots=%d}", len(d.loc), d.h.nslots)
}

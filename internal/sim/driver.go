package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mobility"
)

// Target is a simulated tracking structure the concurrent driver can feed
// (MOTSim or TreeSim).
type Target interface {
	Publish(o core.ObjectID, at graph.NodeID) error
	IssueMove(o core.ObjectID, to graph.NodeID, at float64) error
	IssueQuery(from graph.NodeID, o core.ObjectID, at float64) error
}

// DriverConfig shapes the concurrent schedule. The defaults reproduce the
// paper's setting: bursts of up to 10 concurrent operations per object, the
// next object's burst starting after the previous object's burst window
// (§8: "we start 10 concurrent operations for some other object after 10
// concurrent operations for one object finished").
type DriverConfig struct {
	// Concurrency is the number of operations of one object issued
	// concurrently (the paper fixes 10).
	Concurrency int
	// Gap is the issue-time spacing between the operations of one burst.
	Gap float64
	// Window is the time allotted to one burst before the next object's
	// burst starts; <= 0 derives 2×(Concurrency×Gap + diameter).
	Window float64
	// Diameter of the network, used for the Window default.
	Diameter float64
	// Seed drives the burst ordering and query timing.
	Seed int64
}

func (c *DriverConfig) fill() {
	if c.Concurrency <= 0 {
		c.Concurrency = 10
	}
	if c.Gap <= 0 {
		c.Gap = 1
	}
	if c.Window <= 0 {
		c.Window = 2 * (float64(c.Concurrency)*c.Gap + c.Diameter)
	}
}

// Schedule publishes the workload's objects, schedules every move in
// concurrent bursts, and spreads the workload's queries uniformly over the
// busy horizon so they overlap maintenance. It returns the schedule horizon.
// Call eng.Run afterwards to execute.
func Schedule(target Target, w *mobility.Workload, cfg DriverConfig) (float64, error) {
	cfg.fill()
	// Every move, and any query due after the last one, joins the
	// engine's scheduled lane: size it once.
	if r, ok := target.(interface{ reserve(n int) }); ok {
		r.reserve(len(w.Moves) + len(w.Queries))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for o, at := range w.Initial {
		if err := target.Publish(core.ObjectID(o), at); err != nil {
			return 0, fmt.Errorf("sim: publish %d: %w", o, err)
		}
	}
	// Per-object sequences, preserved order.
	seqs := make([][]mobility.Move, w.Objects)
	for _, mv := range w.Moves {
		seqs[mv.Object] = append(seqs[mv.Object], mv)
	}
	idx := make([]int, w.Objects)
	t := 0.0
	remaining := len(w.Moves)
	for remaining > 0 {
		// Pick a random object with moves left, take its next burst.
		o := rng.Intn(w.Objects)
		if idx[o] >= len(seqs[o]) {
			continue
		}
		burst := seqs[o][idx[o]:]
		if len(burst) > cfg.Concurrency {
			burst = burst[:cfg.Concurrency]
		}
		idx[o] += len(burst)
		remaining -= len(burst)
		for i, mv := range burst {
			if err := target.IssueMove(mv.Object, mv.To, t+float64(i)*cfg.Gap); err != nil {
				return 0, fmt.Errorf("sim: issue move: %w", err)
			}
		}
		t += cfg.Window
	}
	horizon := t
	if horizon <= 0 {
		horizon = 1
	}
	for _, q := range w.Queries {
		at := rng.Float64() * horizon
		if err := target.IssueQuery(q.From, q.Object, at); err != nil {
			return 0, fmt.Errorf("sim: issue query: %w", err)
		}
	}
	return horizon, nil
}

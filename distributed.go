package mot

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/runtime"
)

// Distributed is a live message-passing realization of MOT: operations
// walk station to station on the caller's goroutine as per-hop messages
// between sensors (with per-attempt costs, faults and retries), running
// the same Algorithm 1 handler as Tracker. It trades Tracker's detailed
// metering for distributed execution.
type Distributed struct {
	tr *runtime.Tracker
}

// ErrStopped reports a Distributed operation issued after Close.
var ErrStopped = runtime.ErrStopped

// NewDistributed builds the overlay; it starts no goroutine.
func NewDistributed(g *Graph, opt Options) (*Distributed, error) {
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{
		Seed:                opt.Seed,
		SpecialParentOffset: opt.SpecialParentOffset,
	})
	if err != nil {
		return nil, fmt.Errorf("mot: building HS overlay: %w", err)
	}
	var inj *chaos.Injector
	if opt.Chaos != nil {
		c := opt.Chaos
		// Crash windows need a simulated clock, which the live runtime
		// lacks; crashes are driven explicitly through Crash/Recover.
		inj = chaos.NewInjector(chaos.Config{
			Seed:        c.Seed,
			DropRate:    c.DropRate,
			DelayRate:   c.DelayRate,
			DelayFactor: c.DelayFactor,
			MaxAttempts: c.MaxAttempts,
		}, g.N())
	}
	return &Distributed{tr: runtime.New(g, hs, runtime.Options{Chaos: inj, Obs: opt.Obs})}, nil
}

// LoadByNode returns each sensor's stored DL and SDL entry count (a
// consistent snapshot only with no operation in flight).
func (d *Distributed) LoadByNode() []int { return d.tr.LoadByNode() }

// ObserveLoad snapshots LoadByNode into the recorder (Options.Obs) as the
// node.entries series; a no-op without a recorder.
func (d *Distributed) ObserveLoad() { d.tr.ObserveLoad() }

// Crash marks sensor n as down: messages to it are dropped and retried
// until Recover; operations whose retransmission budget runs out fail with
// a typed *DeliveryError. Only effective with Options.Chaos set.
func (d *Distributed) Crash(n NodeID) { d.tr.Crash(n) }

// Recover marks sensor n as up again.
func (d *Distributed) Recover(n NodeID) { d.tr.Recover(n) }

// SimulatedDelay returns the simulated time spent in chaos backoffs and
// injected delivery delays (accounted, never slept).
func (d *Distributed) SimulatedDelay() float64 { return d.tr.SimulatedDelay() }

// FaultTrace returns the deterministic fault trace (nil without chaos).
func (d *Distributed) FaultTrace() *FaultTrace { return d.tr.FaultTrace() }

// Publish introduces object o at sensor at; it returns once the detection
// trail reaches the root. A failed publish has no effect.
func (d *Distributed) Publish(o ObjectID, at NodeID) error {
	return d.tr.Publish(o, at)
}

// Move reports that o moved to sensor to; it returns when the maintenance
// operation completes. A failed move has no effect. Same-object moves
// serialize; different objects proceed concurrently.
func (d *Distributed) Move(o ObjectID, to NodeID) error {
	return d.tr.Move(o, to)
}

// Query locates o from sensor from, returning the proxy and the search
// walk's communication cost.
func (d *Distributed) Query(from NodeID, o ObjectID) (NodeID, float64, error) {
	return d.tr.Query(from, o)
}

// Location returns o's current proxy.
func (d *Distributed) Location(o ObjectID) (NodeID, bool) { return d.tr.Location(o) }

// Cost returns the total distance traveled by all messages so far.
func (d *Distributed) Cost() float64 { return d.tr.Cost() }

// Close stops the tracker: operations issued afterwards fail with
// ErrStopped, while operations already walking finish. Close is
// idempotent.
func (d *Distributed) Close() { d.tr.Stop() }

package treedir

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// Directory is a message-pruning tree directory over a finalized Tree, the
// handler's sequential driver: it applies each operation at once.
type Directory struct {
	h   *Handler
	loc map[core.ObjectID]graph.NodeID
}

// New creates a directory over a finalized tree. It returns an error if the
// tree has not been finalized.
func New(t *Tree, m *graph.Metric, cfg Config) (*Directory, error) {
	h, err := NewHandler(t, m, cfg)
	if err != nil {
		return nil, err
	}
	return &Directory{h: h, loc: make(map[core.ObjectID]graph.NodeID)}, nil
}

// Meter returns a snapshot of the cost counters.
func (d *Directory) Meter() core.CostMeter { return d.h.Meter }

// Location returns the current proxy of o.
func (d *Directory) Location(o core.ObjectID) (graph.NodeID, bool) {
	v, ok := d.loc[o]
	return v, ok
}

// Publish introduces o at sensor at, stamping the leaf-to-root path.
func (d *Directory) Publish(o core.ObjectID, at graph.NodeID) error {
	if cur, ok := d.loc[o]; ok {
		return fmt.Errorf("treedir: object %d already published at %d", o, cur)
	}
	m, err := d.h.NewMsg(core.PublishMsg, o, at)
	if err != nil {
		return err
	}
	d.h.Walk(&m)
	d.loc[o] = at
	d.h.Meter.PublishCost += m.Cost
	d.h.Meter.PublishOps++
	return nil
}

// Move performs a maintenance operation: o moved to sensor to. The insert
// climbs from to's leaf until a node already holding o (the LCA with the
// old branch), repoints it, and the delete prunes the old branch downward.
func (d *Directory) Move(o core.ObjectID, to graph.NodeID) error {
	from, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("treedir: object %d not published", o)
	}
	if from == to {
		return nil
	}
	m, err := d.h.NewMsg(core.MoveMsg, o, to)
	if err != nil {
		return err
	}
	if v := d.h.Walk(&m); v != core.Done {
		return stopped(&m, v)
	}
	d.loc[o] = to
	d.h.Meter.AddMaintSample(m.Cost, d.h.m.Dist(from, to))
	return nil
}

// Query locates o from sensor from, returning the proxy and the query's
// communication cost.
func (d *Directory) Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	proxy, ok := d.loc[o]
	if !ok {
		return graph.Undefined, 0, fmt.Errorf("treedir: object %d not published", o)
	}
	m, err := d.h.NewMsg(core.QueryMsg, o, from)
	if err != nil {
		return graph.Undefined, 0, err
	}
	m.Truth = proxy
	if v := d.h.Walk(&m); v != core.Done {
		return graph.Undefined, m.Cost, stopped(&m, v)
	}
	d.h.Meter.AddQuerySample(m.Cost, d.h.m.Dist(from, proxy))
	return proxy, m.Cost, nil
}

func stopped(m *Msg, v core.Verdict) error {
	return fmt.Errorf("treedir: object %d from sensor %d: %v at tree node %d", m.Obj, m.Owner, v, m.At)
}

// LoadByNode returns the number of detection entries stored at each
// sensor (tree nodes count at their hosts).
func (d *Directory) LoadByNode() []int { return d.h.LoadByNode() }

// CheckInvariants verifies that every published object has a clean pointer
// trail from the root to its proxy leaf and no orphaned entries.
func (d *Directory) CheckInvariants() error { return d.h.CheckInvariants(d.loc) }

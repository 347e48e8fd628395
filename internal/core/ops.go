package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Publish introduces object o at proxy node at, stamping o along the home
// chain of DPath(at) up to the root (Algorithm 1 lines 1–5). Publishing an
// already-published object is an error.
//
//motlint:hotpath
func (d *Directory) Publish(o ObjectID, at graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cost, err := d.introduce(obs.OpPublish, o, at)
	if err == nil {
		d.h.Meter.PublishCost += cost
		d.h.Meter.PublishOps++
	}
	return err
}

// introduce stamps a new object's trail from proxy at, for Publish and
// Restore alike, and returns the walk cost.
func (d *Directory) introduce(kind string, o ObjectID, at graph.NodeID) (float64, error) {
	if err := d.h.CheckSensor(at); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if cur, ok := d.loc[o]; ok {
		return 0, fmt.Errorf("core: object %d already published at node %d", o, cur)
	}
	d.obsStart(kind, o)
	m := d.msg(PublishMsg, o, 0, at)
	d.walk(&m, Forward)
	d.loc[o] = at
	d.obsFinish(m.Cost)
	return m.Cost, nil
}

// Move performs a maintenance operation: object o has moved from its
// current proxy to node to. The insert climbs DPath(to), probing every
// station of each level, until it finds a station already holding o (the
// peak); it repoints the peak into the new home chain and the delete then
// erases the old trail downward to the old proxy (Algorithm 1 lines 6–18).
//
//motlint:hotpath
func (d *Directory) Move(o ObjectID, to graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.h.CheckSensor(to); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	from, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("core: object %d not published", o)
	}
	if from == to {
		return nil
	}
	d.moves++
	d.obsStart(obs.OpMove, o)
	sampled := d.sampleBegin()
	m := d.msg(MoveMsg, o, d.moves, to)
	// The first step stamps the new proxy's own station in place.
	if v := d.walk(&m, d.h.Step(&m)); v != Done {
		d.sampActive = false
		return fmt.Errorf("core: move of object %d to %d: %v at %v", o, to, v, m.At)
	}
	d.loc[o] = to
	optEst := d.h.m.Dist(from, to)
	d.h.Meter.AddMaintSample(m.Cost, optEst)
	if sampled {
		d.sampleEndMaint(from, to, optEst)
	}
	d.obsFinish(m.Cost)
	return nil
}

// QueryTrace reports how a query was resolved.
type QueryTrace struct {
	// HitLevel is the level at which the object was found in a DL or SDL.
	HitLevel int
	// ViaSDL is true when the hit came from a special detection list.
	ViaSDL bool
	// Cost is the query's communication cost.
	Cost float64
}

// Query locates object o from requesting node from (Algorithm 1 lines
// 19–24): climb DPath(from), probing each level's stations, until one holds
// o in its DL or SDL, then descend the trail (via the special child for an
// SDL hit) to the proxy. It returns the proxy and this query's cost.
//
//motlint:hotpath
func (d *Directory) Query(from graph.NodeID, o ObjectID) (graph.NodeID, float64, error) {
	proxy, tr, err := d.QueryTraced(from, o)
	return proxy, tr.Cost, err
}

// QueryTraced is Query returning resolution details (hit level, SDL use) —
// used by the theory-validation tests for Lemma 2.1 and Lemma 4.10.
//
//motlint:hotpath
func (d *Directory) QueryTraced(from graph.NodeID, o ObjectID) (graph.NodeID, QueryTrace, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.h.CheckSensor(from); err != nil {
		return graph.Undefined, QueryTrace{}, fmt.Errorf("core: %w", err)
	}
	proxy, ok := d.loc[o]
	if !ok {
		return graph.Undefined, QueryTrace{}, fmt.Errorf("core: object %d not published", o)
	}
	d.obsStart(obs.OpQuery, o)
	sampled := d.sampleBegin()
	m := d.msg(QueryMsg, o, 0, from)
	m.Truth = proxy
	v := d.walk(&m, Forward)
	trace := QueryTrace{HitLevel: m.hit.Level, ViaSDL: m.viaSDL, Cost: m.Cost}
	if v != Done {
		d.sampActive = false
		d.obsFinish(m.Cost)
		return graph.Undefined, trace, fmt.Errorf("core: query for object %d from %d: %v at %v", o, from, v, m.At)
	}
	if d.cfg.CountReply {
		trace.Cost += d.dist(proxy, from)
	}
	optEst := d.h.m.Dist(from, proxy)
	d.h.Meter.AddQuerySample(trace.Cost, optEst)
	if sampled {
		d.sampleEndQuery(from, proxy, optEst)
	}
	d.obsFinish(trace.Cost)
	return proxy, trace, nil
}

// msg starts the handler message of the operation now in flight.
func (d *Directory) msg(kind MsgKind, o ObjectID, ver uint64, owner graph.NodeID) Msg {
	m := d.h.NewMsg(kind, o, ver, owner)
	m.Span, m.Now = d.obsCur, d.obsNow
	return m
}

// walk is the sequential driver: it loops m through the handler in place
// from verdict v, each Forward a metered (possibly sampled) travel and a
// visit, each probed level closed by a hop event with the level's cost.
//
//motlint:hotpath
func (d *Directory) walk(m *Msg, v Verdict) Verdict {
	lvl := m.Cost
	for {
		switch v {
		case Forward:
			m.Cost += d.dist(m.At.Host, m.Next.Host)
			m.At = m.Next
			d.obsVisit(m.At)
			v = d.h.Step(m)
		case LevelDone:
			if m.Span.Active() {
				m.Span.Event(obs.EvHop, m.l, int(m.At.Host), m.Cost-lvl, m.Now)
			}
			v = d.h.Step(m)
			lvl = m.Cost
		default:
			return v
		}
	}
}

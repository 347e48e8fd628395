package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Operations follow Algorithm 1 with the §3.1 parent-set refinement
// realized as probe-all / stamp-home: climbing operations visit every
// parent-set station of each level in ID order (which is what guarantees
// the Lemma 2.1 meeting levels and avoids the Fig. 3 race), while detection
// trails are anchored at the default-parent (home) chain, so each object's
// trail is a single root-to-proxy pointer chain. Lemma 2.1's proof needs
// exactly this asymmetry: the prober's parent set at level ceil(log d)+1
// always contains the target's home station.

// Publish introduces object o at proxy node at, stamping o along the home
// chain of DPath(at) up to the root (Algorithm 1 lines 1–5). Publishing an
// already-published object is an error.
//
//motlint:hotpath
func (d *Directory) Publish(o ObjectID, at graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.loc[o]; ok {
		return fmt.Errorf("core: object %d already published at node %d", o, cur)
	}
	d.obsStart(obs.OpPublish, o)
	cost := d.stampWalk(o, at, 0)
	d.loc[o] = at
	d.ver[o] = 0
	d.meter.PublishCost += cost
	d.meter.PublishOps++
	d.obsFinish(cost)
	return nil
}

// stampWalk performs the publish-shaped walk that stamps o along the home
// chain of DPath(at) up to the root at version ver, returning the walk
// cost. Publish, Repair, and Restore share it so a re-stamped trail is
// state- and cost-identical to a freshly published one.
//
//motlint:hotpath
func (d *Directory) stampWalk(o ObjectID, at graph.NodeID, ver uint64) float64 {
	path := d.ov.DPath(at)
	cost := 0.0
	prev := path[0][0]
	for l := 0; l < len(path); l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.m.Dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
		cost += d.stampHome(at, path, l, o, ver)
	}
	return cost
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
	from, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("core: object %d not published", o)
	}
	if from == to {
		return nil
	}
	d.ver[o]++
	ver := d.ver[o]
	d.obsStart(obs.OpMove, o)
	sampled := d.sampleBegin()
	path := d.ov.DPath(to)
	cost := 0.0
	prev := path[0][0]
	cost += d.stampHome(to, path, 0, o, ver)

	var peak overlay.Station
	var oldEntry dlEntry
	found := false
	for l := 1; l < len(path) && !found; l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
			if found {
				continue
			}
			if s, ok := d.peek(st); ok {
				if e, has := s.dl[o]; has {
					found, peak, oldEntry = true, st, e
					d.obsEvent(obs.EvPeak, st.Level, st.Host, 0)
					cost += d.touch(st, o) // read the distributed entry
				}
			}
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
		if !found {
			cost += d.stampHome(to, path, l, o, ver)
		}
	}
	if !found {
		// The root always holds every published object; reaching here
		// indicates directory corruption.
		return fmt.Errorf("core: insert for object %d reached the top without finding it", o)
	}

	// Repoint the peak into the new chain.
	cost += d.repoint(to, path, peak, o, ver)

	// Delete the old trail downward from the peak's previous pointer.
	if !oldEntry.hasChild {
		return fmt.Errorf("core: peak entry for object %d at %v has no child", o, peak)
	}
	cur := oldEntry.child
	pos := prev.Host
	for {
		cost += d.dist(pos, cur.Host)
		pos = cur.Host
		d.obsVisit(cur)
		cost += d.touch(cur, o)
		s, ok := d.peek(cur)
		if !ok {
			return fmt.Errorf("core: delete for object %d lost the trail at %v", o, cur)
		}
		e, has := s.dl[o]
		if !has {
			return fmt.Errorf("core: delete for object %d lost the trail at %v", o, cur)
		}
		d.removeEntry(cur, o)
		if !e.hasChild {
			break // old proxy's bottom-level slot erased
		}
		cur = e.child
	}

	d.loc[o] = to
	optEst := d.m.Dist(from, to)
	d.meter.AddMaintSample(cost, optEst)
	if sampled {
		d.sampleEndMaint(from, to, optEst)
	}
	d.obsFinish(cost)
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
	proxy, ok := d.loc[o]
	if !ok {
		return graph.Undefined, QueryTrace{}, fmt.Errorf("core: object %d not published", o)
	}
	d.obsStart(obs.OpQuery, o)
	sampled := d.sampleBegin()
	path := d.ov.DPath(from)
	cost := 0.0
	prev := path[0][0]

	var hitDL, hitSDL bool
	var at, sdlChild overlay.Station
	for l := 0; l < len(path) && !hitDL && !hitSDL; l++ {
		lvl := cost
		for _, st := range path[l] {
			cost += d.dist(prev.Host, st.Host)
			prev = st
			d.obsVisit(st)
			if hitDL || hitSDL {
				continue
			}
			if s, ok := d.peek(st); ok {
				if _, has := s.dl[o]; has {
					hitDL, at = true, st
					d.obsEvent(obs.EvPeak, st.Level, st.Host, 0)
					cost += d.touch(st, o) // read the distributed entry
				} else if se, has := s.sdl[o]; has {
					hitSDL, at, sdlChild = true, st, se.child
					d.obsEvent(obs.EvSDL, st.Level, st.Host, 0)
					cost += d.touch(st, o)
				}
			}
		}
		d.obsEvent(obs.EvHop, l, prev.Host, cost-lvl)
	}
	if !hitDL && !hitSDL {
		d.obsFinish(cost)
		return graph.Undefined, QueryTrace{Cost: cost}, fmt.Errorf("core: query for object %d found no trace up to the root", o)
	}
	trace := QueryTrace{HitLevel: at.Level, ViaSDL: hitSDL}

	cur := at
	if hitSDL {
		cost += d.dist(cur.Host, sdlChild.Host)
		cur = sdlChild
		d.obsVisit(cur)
		cost += d.touch(cur, o)
		if !d.holds(cur, o) {
			trace.Cost = cost
			d.obsFinish(cost)
			return graph.Undefined, trace, fmt.Errorf("core: stale SDL shortcut for object %d at %v", o, at)
		}
	}

	for {
		s, ok := d.peek(cur)
		if !ok {
			trace.Cost = cost
			d.obsFinish(cost)
			return graph.Undefined, trace, fmt.Errorf("core: descent lost object %d at %v", o, cur)
		}
		e, has := s.dl[o]
		if !has {
			trace.Cost = cost
			d.obsFinish(cost)
			return graph.Undefined, trace, fmt.Errorf("core: descent lost object %d at %v", o, cur)
		}
		if !e.hasChild {
			break // bottom-level proxy slot
		}
		cost += d.dist(cur.Host, e.child.Host)
		cur = e.child
		d.obsVisit(cur)
		cost += d.touch(cur, o)
	}
	if cur.Host != proxy {
		trace.Cost = cost
		d.obsFinish(cost)
		return graph.Undefined, trace, fmt.Errorf("core: query for object %d ended at %d, proxy is %d", o, cur.Host, proxy)
	}
	if d.cfg.CountReply {
		cost += d.dist(proxy, from)
	}
	trace.Cost = cost
	optEst := d.m.Dist(from, proxy)
	d.meter.AddQuerySample(cost, optEst)
	if sampled {
		d.sampleEndQuery(from, proxy, optEst)
	}
	d.obsFinish(cost)
	return proxy, trace, nil
}

// stampHome writes o's entry at the home station of path level l, pointing
// down at the home station one level below, and registers the special
// parent. It returns the placement routing surcharge.
func (d *Directory) stampHome(owner graph.NodeID, path overlay.Path, l int, o ObjectID, ver uint64) float64 {
	st := d.ov.HomeStation(owner, l)
	e := dlEntry{version: ver}
	if l > 0 {
		e.child = d.ov.HomeStation(owner, l-1)
		e.hasChild = true
	}
	return d.install(st, path, l, o, e)
}

// repoint redirects the peak station's entry into the new home chain one
// level below the peak.
func (d *Directory) repoint(owner graph.NodeID, path overlay.Path, peak overlay.Station, o ObjectID, ver uint64) float64 {
	e := dlEntry{version: ver}
	if peak.Level > 0 {
		e.child = d.ov.HomeStation(owner, peak.Level-1)
		e.hasChild = true
	}
	return d.install(peak, path, peak.Level, o, e)
}

// install writes the entry at st, replacing any previous registration, and
// registers the special parent chosen from the stamping path.
func (d *Directory) install(st overlay.Station, path overlay.Path, l int, o ObjectID, e dlEntry) float64 {
	idx := 0
	for i, cand := range path[l] {
		if cand == st {
			idx = i
			break
		}
	}
	sp, spOK := overlay.SpecialParent(path, l, idx, d.ov.SpecialOffset())
	e.sp, e.spOK = sp, spOK
	s := d.slot(st)
	if old, ok := s.dl[o]; ok && old.spOK {
		d.removeSDL(old.sp, st, o)
	}
	s.dl[o] = e
	d.obsEvent(obs.EvStamp, l, st.Host, 0)
	if spOK {
		d.slot(sp).sdl[o] = sdlEntry{child: st, version: e.version}
		d.addSpecialCost(d.m.Dist(st.Host, sp.Host))
		d.obsEvent(obs.EvSDL, sp.Level, sp.Host, d.m.Dist(st.Host, sp.Host))
	}
	return d.touch(st, o)
}

// removeEntry erases o from the detection list at st and cleans up the
// corresponding SDL registration.
func (d *Directory) removeEntry(st overlay.Station, o ObjectID) {
	s, ok := d.peek(st)
	if !ok {
		return
	}
	e, has := s.dl[o]
	if !has {
		return
	}
	delete(s.dl, o)
	d.obsEvent(obs.EvWipe, st.Level, st.Host, 0)
	if e.spOK {
		d.removeSDL(e.sp, st, o)
		d.addSpecialCost(d.m.Dist(st.Host, e.sp.Host))
	}
}

// removeSDL deletes the SDL entry for o at sp if it was registered by
// child; registrations can be overwritten by newer fragments of the same
// object's trail, in which case the stale cleanup is a no-op.
func (d *Directory) removeSDL(sp, child overlay.Station, o ObjectID) {
	s, ok := d.peek(sp)
	if !ok {
		return
	}
	if se, has := s.sdl[o]; has && se.child == child {
		delete(s.sdl, o)
	}
}

// touch accounts the intra-cluster routing surcharge for accessing the
// entry of o at st under the configured placement (Corollary 5.2's
// O(log n) factor shows up in measured ratios when load balancing is on).
// Only stations whose detection list has grown past the threshold
// distribute — the paper's adaptive "kicks in when flooded" behavior.
func (d *Directory) touch(st overlay.Station, o ObjectID) float64 {
	if !d.distributed(st) {
		return 0
	}
	c := d.cfg.Placement.RouteCost(st, o)
	d.meter.LBRouteCost += c
	d.obsEvent(obs.EvLBRoute, st.Level, st.Host, c)
	if !d.cfg.CountLBRouteCost {
		return 0
	}
	return c
}

// distributed reports whether st currently spreads its entries across its
// cluster.
func (d *Directory) distributed(st overlay.Station) bool {
	if _, host := d.cfg.Placement.(HostPlacement); host {
		return false
	}
	s, ok := d.peek(st)
	return ok && len(s.dl) >= lbThreshold
}

// addSpecialCost accounts an SDL maintenance message; folded into MaintCost
// only when configured (the paper's analysis reports it separately).
func (d *Directory) addSpecialCost(c float64) {
	d.meter.SpecialCost += c
	if d.cfg.CountSpecialParentCost {
		d.meter.MaintCost += c
	}
}

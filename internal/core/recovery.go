package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Fault recovery (the §7 adaptability path, fine-grained form): when a
// station crashes, the entries it stored vanish. Rather than rebuilding the
// whole directory, each damaged object's trail is re-stamped along the home
// chain of its surviving ground-truth proxy — the same O(diameter) walk a
// publish pays, amortized O(1) cluster updates in the paper's analysis.
// Recovery message cost is metered separately (CostMeter.RecoveryCost) so
// fault-free cost ratios stay comparable.

// Unpublish removes object o from the directory: its trail is erased from
// the root down to the proxy (charged as one recovery walk) and its
// ground-truth record dropped. This is the "sensor leave / object retired"
// half of §7 dynamics; re-introducing the object later is a fresh Publish.
func (d *Directory) Unpublish(o ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.loc[o]; !ok {
		return fmt.Errorf("core: object %d not published", o)
	}
	d.obsStart(obs.OpRecovery, o)
	m := Msg{Obj: o, Span: d.obsCur, Now: d.obsNow}
	st := d.h.ov.Root()
	pos := st.Host
	for {
		m.Cost += d.h.m.Dist(pos, st.Host)
		pos = st.Host
		d.obsVisit(st)
		e, has := d.h.entry(st, o)
		if !has {
			break
		}
		d.h.remove(&m, st, e)
		if !e.hasChild {
			break
		}
		st = e.child
	}
	m.Owner = pos
	d.h.Wipe(&m) // defensive: a damaged trail may have left detached entries
	delete(d.loc, o)
	d.h.Meter.RecoveryCost += m.Cost
	d.h.Meter.RecoveryOps++
	d.obsFinish(m.Cost)
	return nil
}

// DropHost models the crash of physical node n: every DL/SDL entry stored
// at a station hosted on n is lost, and SDL shortcuts elsewhere that point
// into n are invalidated. It returns the sorted IDs of the objects whose
// directory state was damaged — the set a recovery pass must Repair once
// the node is back (or that a rebuild must cover past the churn threshold).
func (d *Directory) DropHost(n graph.NodeID) []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	damaged := map[ObjectID]bool{}
	d.h.eachSlot(func(s *slot) {
		if s.station.Host == n {
			for o := range s.dl {
				damaged[o] = true
			}
			for o := range s.sdl {
				damaged[o] = true
			}
			s.dl = make(map[ObjectID]dlEntry)
			s.sdl = make(map[ObjectID]sdlEntry)
			return
		}
		for o, se := range s.sdl {
			if se.child.Host == n {
				damaged[o] = true
				delete(s.sdl, o)
			}
		}
		for o, e := range s.dl {
			if e.hasChild && e.child.Host == n {
				damaged[o] = true
			}
		}
	})
	out := make([]ObjectID, 0, len(damaged))
	for o := range damaged {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Repair re-establishes o's trail after crash damage: all surviving
// fragments are wiped and the full home chain of the current ground-truth
// proxy is re-stamped at the latest move's version (the fine-grained §7
// path — one object's chain, not a directory rebuild). The walk is charged
// to RecoveryCost.
func (d *Directory) Repair(o ObjectID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	proxy, ok := d.loc[o]
	if !ok {
		return fmt.Errorf("core: object %d not published", o)
	}
	d.obsStart(obs.OpRecovery, o)
	m := d.msg(PublishMsg, o, d.moves, proxy)
	d.h.Wipe(&m)
	d.walk(&m, Forward)
	d.h.Meter.RecoveryCost += m.Cost
	d.h.Meter.RecoveryOps++
	d.obsFinish(m.Cost)
	return nil
}

// Restore re-introduces object o at proxy node at: the same walk and
// resulting directory state as Publish, but charged to RecoveryCost. The
// churn path uses it where the re-stamp is repair work rather than a new
// object — republishing the population into a fresh post-rebuild
// directory, and re-introducing objects parked on a failed proxy once the
// node recovers — so fault-free cost ratios stay comparable.
func (d *Directory) Restore(o ObjectID, at graph.NodeID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cost, err := d.introduce(obs.OpRecovery, o, at)
	if err == nil {
		d.h.Meter.RecoveryCost += cost
		d.h.Meter.RecoveryOps++
	}
	return err
}

// StaleObjects returns the sorted IDs of published objects whose stored
// trail is no longer operational under the current overlay: following the
// detection trail from the current root station down its child pointers
// must reach the object's ground-truth proxy at level 0. That walk fails
// after crash damage (DropHost wiped a link) and after structural overlay
// repair moved the root or the height (the trail's anchor is gone), which
// are exactly the cases where a climbing operation could miss the object
// — every surviving trail is still found through its peak, at worst at
// the root (Lemma 2.1's meeting argument needs only the anchored top).
// The set is what a recovery pass must Repair; healthy move-shaped trails
// are not flagged, which keeps repair work local to the perturbation.
// Objects whose proxy satisfies skip (nil skips none) are not examined —
// a failed proxy has no defined detection path until it recovers.
func (d *Directory) StaleObjects(skip func(graph.NodeID) bool) []ObjectID {
	d.mu.Lock()
	defer d.mu.Unlock()
	objs := make([]ObjectID, 0, len(d.loc))
	for o := range d.loc {
		if skip != nil && skip(d.loc[o]) {
			continue
		}
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	out := objs[:0]
	root := d.h.ov.Root()
	// Slots above the current root level can only hold fragments of
	// trails stamped when the hierarchy was taller: after a height
	// shrink no walk — queries never climb past the root — reaches
	// them, so their objects must be re-stamped even when the walk
	// below the new root succeeds, or the fragments leak as orphans.
	var high []*slot
	d.h.eachSlot(func(s *slot) {
		if s.station.Level > root.Level && (len(s.dl) > 0 || len(s.sdl) > 0) {
			high = append(high, s)
		}
	})
	for _, o := range objs {
		if !d.trailIntact(o, d.loc[o], root) || holdsAbove(high, o) {
			out = append(out, o)
		}
	}
	return out
}

// holdsAbove reports whether any of the above-root slots still records o.
func holdsAbove(high []*slot, o ObjectID) bool {
	for _, s := range high {
		if _, has := s.dl[o]; has {
			return true
		}
		if _, has := s.sdl[o]; has {
			return true
		}
	}
	return false
}

// trailIntact follows o's stored trail from the given root station down
// to level 0, reporting whether it is unbroken and ends at the proxy.
func (d *Directory) trailIntact(o ObjectID, proxy graph.NodeID, root overlay.Station) bool {
	st := root
	for {
		e, has := d.h.entry(st, o)
		if !has {
			return false
		}
		if !e.hasChild {
			return st.Level == 0 && st.Host == proxy
		}
		if e.child.Level != st.Level-1 {
			// Level strictly decreases, so the walk always terminates.
			return false
		}
		st = e.child
	}
}

// SwapOverlay replaces the directory's overlay (and its metric oracle)
// with a rebuilt one over the same network. Stored trails are untouched:
// the caller must follow up with a StaleObjects sweep and Repair whatever
// the structural change broke, exactly as after an in-place overlay
// repair.
func (d *Directory) SwapOverlay(ov overlay.Overlay) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.h.ov, d.h.m = ov, ov.Metric()
}

// AbsorbMeter folds a previous directory's accumulated costs into this one,
// preserving cost continuity across a full rebuild (the coarse §7 fallback
// past the churn threshold).
func (d *Directory) AbsorbMeter(m CostMeter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.h.Meter.Add(m)
}

package core

import (
	"fmt"

	"repro/internal/graph"
)

// CheckInvariants runs Handler.CheckInvariants over the directory.
func (d *Directory) CheckInvariants() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.CheckInvariants(d.loc)
}

// CheckInvariants validates the store against the ground truth loc (each
// published object's proxy), at quiescence only. For every object:
//
//   - the root station holds the object,
//   - following child pointers downward from the root reaches exactly one
//     bottom-level station, and that station is the object's proxy,
//   - every station holding the object is on that trail (no orphaned
//     detection-list entries),
//   - every SDL shortcut points at a station that still holds the object.
func (h *Handler) CheckInvariants(loc map[ObjectID]graph.NodeID) error {
	// Every holder on an object's trail is counted once here, so the
	// trail holds all of them exactly when the counts agree.
	holders := map[ObjectID]int{}
	h.eachSlot(func(s *slot) {
		for o := range s.dl {
			holders[o]++
		}
	})
	root := h.ov.Root()
	for o, proxy := range loc {
		if _, ok := h.entry(root, o); !ok {
			return fmt.Errorf("core: invariant: root does not hold object %d", o)
		}
		reach := map[*slot]bool{}
		st := root
		for {
			e, has := h.entry(st, o)
			if !has {
				return fmt.Errorf("core: invariant: trail station %v lost object %d", st, o)
			}
			s, _ := h.peek(st)
			if reach[s] {
				return fmt.Errorf("core: invariant: trail for object %d cycles at %v", o, st)
			}
			reach[s] = true
			if !e.hasChild {
				if st.Level != 0 {
					return fmt.Errorf("core: invariant: trail for object %d ends above level 0 at %v", o, st)
				}
				if st.Host != proxy {
					return fmt.Errorf("core: invariant: object %d trail ends at %d, proxy is %d", o, st.Host, proxy)
				}
				break
			}
			if e.child.Level != st.Level-1 {
				return fmt.Errorf("core: invariant: trail for object %d skips levels at %v -> %v", o, st, e.child)
			}
			st = e.child
		}
		if holders[o] == len(reach) {
			continue
		}
		// No orphans: name the first holder off the trail.
		var orphan *slot
		h.eachSlot(func(s *slot) {
			if _, has := s.dl[o]; has && !reach[s] && orphan == nil {
				orphan = s
			}
		})
		return fmt.Errorf("core: invariant: orphaned entry for object %d at %v", o, orphan.station)
	}
	// SDL shortcuts point at live holders.
	var err error
	h.eachSlot(func(s *slot) {
		for o, se := range s.sdl {
			if _, ok := h.entry(se.child, o); !ok && err == nil {
				err = fmt.Errorf("core: invariant: SDL at %v points to %v which lost object %d", s.station, se.child, o)
			}
		}
	})
	return err
}

// LoadByNode returns, for each physical node 0..n-1, the number of object
// and bookkeeping entries (detection-list entries, SDL entries, and proxied
// objects) it stores under the configured placement — the paper's load
// metric (§5, Figs. 8–11).
func (d *Directory) LoadByNode(n int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.LoadByNode(n)
}

// LoadByNode is Directory.LoadByNode over the store.
func (h *Handler) LoadByNode(n int) []int {
	counts := make([]int, n)
	h.eachSlot(func(s *slot) {
		spread := h.distributed(s.station)
		bump := func(o ObjectID) {
			host := s.station.Host
			if spread {
				host = h.cfg.Placement.Place(s.station, o)
			}
			if int(host) >= 0 && int(host) < n {
				counts[host]++
			}
		}
		for o := range s.dl {
			bump(o)
		}
		for o := range s.sdl {
			bump(o)
		}
	})
	return counts
}

// SlotCount returns the number of materialized directory slots.
func (d *Directory) SlotCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.h.nslots
}

// EntryCount returns the total number of DL and SDL entries.
func (d *Directory) EntryCount() (dl, sdl int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.h.eachSlot(func(s *slot) {
		dl += len(s.dl)
		sdl += len(s.sdl)
	})
	return dl, sdl
}

package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Algorithm 1 is written once, here, as a per-station handler (the
// message-passing form of §3, footnote 2); transport, timing and the
// reactions to a stop belong to its drivers (Directory, sim, runtime).
//
// Operations follow the §3.1 parent-set refinement realized as probe-all /
// stamp-home: climbing operations visit every parent-set station of each
// level in ID order (which is what guarantees the Lemma 2.1 meeting levels
// and avoids the Fig. 3 race), while detection trails are anchored at the
// default-parent (home) chain, so each object's trail is a single
// root-to-proxy pointer chain. Lemma 2.1's proof needs exactly this
// asymmetry: the prober's parent set at level ceil(log d)+1 always
// contains the target's home station.

// dlEntry is one object's record in a station's detection list.
type dlEntry struct {
	// child is the next station downward on the object's trail; hasChild
	// is false at the bottom-level proxy slot.
	child    overlay.Station
	hasChild bool
	// sp is the special parent registered for this entry; spOK is false
	// near the root where special parents are undefined.
	sp   overlay.Station
	spOK bool
	// version is the move sequence number that stamped this entry.
	version uint64
}

// sdlEntry is one object's record in a station's special detection list: a
// downward shortcut to the special child that registered it.
type sdlEntry struct {
	child   overlay.Station
	version uint64
}

// slot is the mutable directory state of one station.
type slot struct {
	station overlay.Station
	dl      map[ObjectID]dlEntry
	sdl     map[ObjectID]sdlEntry
}

// MsgKind is the operation a message carries.
type MsgKind uint8

// Algorithm 1's publish (lines 1–5), move (6–18) and query (19–24).
const (
	PublishMsg MsgKind = iota
	MoveMsg
	QueryMsg
)

// Verdict is the handler's answer to one station visit.
type Verdict uint8

// LevelDone pauses a probed level (Step again, in place, to apply its
// rule). The rest stop at Msg.At: Done (root, old proxy, or proxy),
// TrailLost (trail missing, or past the root), StaleProxy (bottom entry
// not Msg.Truth), Overtaken (a newer move owns it).
const (
	Forward Verdict = iota // travel on to Msg.Next
	LevelDone
	Done
	TrailLost
	StaleProxy
	Overtaken
)

var verdictNames = [...]string{"forward", "level done", "done", "trail lost", "stale proxy", "overtaken"}

func (v Verdict) String() string { return verdictNames[v] }

type phase uint8 // the leg of its walk a message is on

const (
	climbing   phase = iota // up the detection path, level by level
	erasing                 // a move deleting the old trail downward
	descending              // a query following the trail to the proxy
)

// Msg is one operation in flight. Drivers move At to Next (adding the
// travel to Cost) and keep Now, Span and a query's proxy Truth current.
type Msg struct {
	Kind  MsgKind
	Obj   ObjectID
	Ver   uint64       // version a publish or move stamps
	Owner graph.NodeID // new proxy of a publish or move; a query's requester
	Path  overlay.Path // DPath(Owner)
	Truth graph.NodeID
	At    overlay.Station
	Next  overlay.Station
	Cost  float64
	Span  obs.Span
	Now   float64

	phase  phase
	l, i   int  // climb position: At is Path[l][i]
	settle bool // the level at At is probed; its rule is next
	found  bool // a climb met the object at hit: a move's peak, a query's hit
	viaSDL bool // the query's hit is an SDL shortcut
	downOK bool // the entry at hit points down, at down
	hit    overlay.Station
	down   overlay.Station
}

// Climbing reports whether m is on its upward leg.
func (m *Msg) Climbing() bool { return m.phase == climbing }

// Handler is Algorithm 1's per-station rule over one slot store (DL, SDL,
// versions, special parents), with the §5 LB surcharge and the protocol
// obs events. Drivers serialize steps and add their samples to Meter.
//
// The store is level-major: rows[l][k] is the slot of station (l, k), nil
// until first stamped. A station's Key lies in [0, n) for the overlay's
// graph of n nodes (overlay.Station), so a level's row is made once, at
// length n, when the level is first stamped.
type Handler struct {
	ov     overlay.Overlay
	m      graph.DistanceOracle
	cfg    Config
	rows   [][]*slot
	nslots int // materialized slots
	Meter  CostMeter
}

// NewHandler returns an empty slot store over ov. Of cfg it uses
// Placement (nil means HostPlacement) and the Count*Cost switches.
func NewHandler(ov overlay.Overlay, cfg Config) *Handler {
	if cfg.Placement == nil {
		cfg.Placement = HostPlacement{}
	}
	return &Handler{ov: ov, m: ov.Metric(), cfg: cfg}
}

// CheckSensor reports a sensor outside the overlay's graph, naming it and
// the range. NewMsg expects a sensor that passed it.
func (h *Handler) CheckSensor(n graph.NodeID) error {
	if size := h.m.Graph().N(); n < 0 || int(n) >= size {
		return fmt.Errorf("sensor %d out of range [0,%d)", n, size)
	}
	return nil
}

// NewMsg starts an operation of o at node owner's bottom station.
func (h *Handler) NewMsg(kind MsgKind, o ObjectID, ver uint64, owner graph.NodeID) Msg {
	path := h.ov.DPath(owner)
	return Msg{Kind: kind, Obj: o, Ver: ver, Owner: owner, Path: path, At: path[0][0], Next: path[0][0]}
}

// Step applies the rule of the station m is at and names the next station
// or says why the operation stopped.
//
//motlint:hotpath
func (h *Handler) Step(m *Msg) Verdict {
	switch {
	case m.phase == erasing:
		return h.erase(m)
	case m.phase == descending:
		m.Cost += h.touch(m, m.At)
		e, ok := h.entry(m.At, m.Obj)
		if !ok {
			return TrailLost
		}
		return h.follow(m, e.child, e.hasChild)
	case m.settle:
		m.settle = false
		return h.settleLevel(m)
	case m.Kind == MoveMsg && m.l == 0:
		// A move stamps its new proxy's station without probing it.
		m.Cost += h.stamp(m, h.home(m, 0))
		return h.climbOn(m)
	}
	if !m.found && m.Kind != PublishMsg {
		if v := h.probe(m); v != Forward {
			return v
		}
	}
	if m.i+1 < len(m.Path[m.l]) {
		m.i++
		m.Next = m.Path[m.l][m.i]
		return Forward
	}
	m.settle = true
	return LevelDone
}

// probe looks for the object at a climb's station: a DL entry is a move's
// peak or a query's hit; queries also take SDL shortcuts.
func (h *Handler) probe(m *Msg) Verdict {
	s, ok := h.peek(m.At)
	if !ok {
		return Forward
	}
	if e, has := s.dl[m.Obj]; has {
		if m.Kind == MoveMsg && e.version >= m.Ver {
			return Overtaken
		}
		m.found, m.hit, m.down, m.downOK = true, m.At, e.child, e.hasChild
		h.event(m, obs.EvPeak, m.At, 0)
		m.Cost += h.touch(m, m.At) // read the distributed entry
	} else if se, has := s.sdl[m.Obj]; has && m.Kind == QueryMsg {
		m.found, m.viaSDL, m.hit, m.down, m.downOK = true, true, m.At, se.child, true
		h.event(m, obs.EvSDL, m.At, 0)
		m.Cost += h.touch(m, m.At)
	}
	return Forward
}

// settleLevel applies a probed level's rule: a query turns down from its
// hit, a move repoints its peak into the new home chain and turns to erase
// the old trail, and otherwise the level's home station is stamped.
func (h *Handler) settleLevel(m *Msg) Verdict {
	switch {
	case m.Kind == QueryMsg && m.found:
		m.phase, m.At = descending, m.hit // the descent leaves from the hit
		return h.follow(m, m.down, m.downOK)
	case m.Kind == QueryMsg:
		return h.climbOn(m)
	case m.found:
		m.Cost += h.stamp(m, m.hit)
		if !m.downOK {
			return TrailLost
		}
		m.phase, m.Next = erasing, m.down
		return Forward
	}
	m.Cost += h.stamp(m, h.home(m, m.l))
	return h.climbOn(m)
}

// climbOn sends a climb to the next level; past the root a publish is
// done and a move or query has missed the trail.
func (h *Handler) climbOn(m *Msg) Verdict {
	if m.l+1 >= len(m.Path) {
		if m.Kind == PublishMsg {
			return Done
		}
		return TrailLost
	}
	m.l, m.i = m.l+1, 0
	if len(m.Path[m.l]) == 0 { // nothing to visit: settle in place
		m.settle = true
		return LevelDone
	}
	m.Next = m.Path[m.l][0]
	return Forward
}

// follow descends to child, or ends the query at the bottom-level slot.
func (h *Handler) follow(m *Msg, child overlay.Station, ok bool) Verdict {
	if ok {
		m.Next = child
		return Forward
	}
	if m.At.Host != m.Truth {
		return StaleProxy
	}
	return Done
}

// erase deletes the old trail's entry at m.At and moves on down.
func (h *Handler) erase(m *Msg) Verdict {
	m.Cost += h.touch(m, m.At)
	e, ok := h.entry(m.At, m.Obj)
	if !ok {
		return TrailLost
	}
	if e.version >= m.Ver {
		// A newer move owns everything below.
		return Overtaken
	}
	h.remove(m, m.At, e)
	if !e.hasChild {
		return Done // old proxy's bottom-level slot erased
	}
	m.Next = e.child
	return Forward
}

// home is the owner's level-l home station, a single-station level's one.
func (h *Handler) home(m *Msg, l int) overlay.Station {
	if len(m.Path[l]) == 1 {
		return m.Path[l][0]
	}
	return h.ov.HomeStation(m.Owner, l)
}

// stamp writes m's entry at st, pointing down at the owner's home station
// one level below, replacing any previous registration, and registers the
// special parent chosen from the stamping path. It returns the placement
// routing surcharge.
func (h *Handler) stamp(m *Msg, st overlay.Station) float64 {
	l := st.Level
	e := dlEntry{version: m.Ver}
	if l > 0 {
		e.child, e.hasChild = h.home(m, l-1), true
	}
	idx := 0
	for i, cand := range m.Path[l] {
		if cand == st {
			idx = i
			break
		}
	}
	e.sp, e.spOK = overlay.SpecialParent(m.Path, l, idx, h.ov.SpecialOffset())
	s := h.slot(st)
	if old, ok := s.dl[m.Obj]; ok && old.spOK {
		h.removeSDL(old.sp, st, m.Obj)
	}
	s.dl[m.Obj] = e
	h.event(m, obs.EvStamp, st, 0)
	if e.spOK {
		sp := h.slot(e.sp)
		if sp.sdl == nil {
			sp.sdl = make(map[ObjectID]sdlEntry) //motlint:ignore hotalloc lazy one-time SDL materialization
		}
		sp.sdl[m.Obj] = sdlEntry{child: st, version: e.version}
		c := h.m.Dist(st.Host, e.sp.Host)
		h.addSpecialCost(c)
		h.event(m, obs.EvSDL, e.sp, c)
	}
	return h.touch(m, st)
}

// remove erases entry e of m's object at st and cleans up the
// corresponding SDL registration.
func (h *Handler) remove(m *Msg, st overlay.Station, e dlEntry) {
	s, _ := h.peek(st)
	delete(s.dl, m.Obj)
	h.event(m, obs.EvWipe, st, 0)
	if e.spOK {
		h.removeSDL(e.sp, st, m.Obj)
		h.addSpecialCost(h.m.Dist(st.Host, e.sp.Host))
	}
}

// removeSDL deletes the SDL entry for o at sp if it was registered by
// child; registrations can be overwritten by newer fragments of the same
// object's trail, in which case the stale cleanup is a no-op.
func (h *Handler) removeSDL(sp, child overlay.Station, o ObjectID) {
	s, ok := h.peek(sp)
	if !ok {
		return
	}
	if se, has := s.sdl[o]; has && se.child == child {
		delete(s.sdl, o)
	}
}

// touch accounts the intra-cluster routing surcharge for accessing the
// entry of m's object at st under the configured placement (Corollary
// 5.2's O(log n) factor shows up in measured ratios when load balancing is
// on). Only stations whose detection list has grown past the threshold
// distribute — the paper's adaptive "kicks in when flooded" behavior.
func (h *Handler) touch(m *Msg, st overlay.Station) float64 {
	if !h.distributed(st) {
		return 0
	}
	c := h.cfg.Placement.RouteCost(st, m.Obj)
	h.Meter.LBRouteCost += c
	h.event(m, obs.EvLBRoute, st, c)
	if !h.cfg.CountLBRouteCost {
		return 0
	}
	return c
}

// distributed reports whether st currently spreads its entries across its
// cluster.
func (h *Handler) distributed(st overlay.Station) bool {
	if _, host := h.cfg.Placement.(HostPlacement); host {
		return false
	}
	s, ok := h.peek(st)
	return ok && len(s.dl) >= lbThreshold
}

// addSpecialCost accounts an SDL maintenance message; folded into MaintCost
// only when configured (the paper's analysis reports it separately).
func (h *Handler) addSpecialCost(c float64) {
	h.Meter.SpecialCost += c
	if h.cfg.CountSpecialParentCost {
		h.Meter.MaintCost += c
	}
}

// event records one protocol event of m at station st.
func (h *Handler) event(m *Msg, kind string, st overlay.Station, cost float64) {
	if m.Span.Active() {
		m.Span.Event(kind, st.Level, int(st.Host), cost, m.Now)
	}
}

// Wipe erases every DL and SDL record of m's object, ahead of a re-stamp
// (the §7 fine-grained repair) or as a defensive sweep. Deletions commute,
// so one aggregate event at m.Owner marks it rather than per-slot events.
func (h *Handler) Wipe(m *Msg) {
	m.Span.Event(obs.EvWipe, -1, int(m.Owner), 0, m.Now)
	h.eachSlot(func(s *slot) {
		delete(s.dl, m.Obj)
		delete(s.sdl, m.Obj)
	})
}

// Walk drives m through the handler in place, for drivers that apply a
// whole operation at once: each Forward adds the metric travel to m.Cost,
// and visit (nil skips it) sees every station reached, the first included.
func (h *Handler) Walk(m *Msg, visit func(overlay.Station)) Verdict {
	for {
		if visit != nil {
			visit(m.At)
		}
		v := h.Step(m)
		for v == LevelDone {
			v = h.Step(m)
		}
		if v != Forward {
			return v
		}
		m.Cost += h.m.Dist(m.At.Host, m.Next.Host)
		m.At = m.Next
	}
}

// slot returns st's slot, making it, and its level's row, on first use.
func (h *Handler) slot(st overlay.Station) *slot {
	for st.Level >= len(h.rows) {
		// A level first stamped, or one a repair added to the hierarchy.
		h.rows = append(h.rows, nil) //motlint:ignore hotalloc lazy one-time extension of the level list
	}
	row := h.rows[st.Level]
	if row == nil {
		row = make([]*slot, h.m.Graph().N()) //motlint:ignore hotalloc lazy one-time materialization of a level's row
		h.rows[st.Level] = row
	}
	s := row[st.Key]
	if s == nil {
		//motlint:ignore hotalloc lazy one-time materialization of a station's slot
		s = &slot{station: st, dl: make(map[ObjectID]dlEntry)}
		row[st.Key] = s
		h.nslots++
	}
	return s
}

// peek returns st's slot if it has been made. A station outside the
// store's rows has none.
func (h *Handler) peek(st overlay.Station) (*slot, bool) {
	if st.Level < 0 || st.Level >= len(h.rows) || st.Key < 0 || st.Key >= int64(len(h.rows[st.Level])) {
		return nil, false
	}
	s := h.rows[st.Level][st.Key]
	return s, s != nil
}

// eachSlot calls f on every materialized slot in (level, key) order.
func (h *Handler) eachSlot(f func(*slot)) {
	for _, row := range h.rows {
		for _, s := range row {
			if s != nil {
				f(s)
			}
		}
	}
}

// entry returns o's DL entry at st, if any. Reads never create a slot.
func (h *Handler) entry(st overlay.Station, o ObjectID) (dlEntry, bool) {
	if s, ok := h.peek(st); ok {
		e, has := s.dl[o]
		return e, has
	}
	return dlEntry{}, false
}

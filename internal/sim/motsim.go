package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/overlay"
)

// phiBase is φ in the per-level period Φ(i) = 2^i·φ (§4.1.2); the theory
// uses 2^(3ρ+6), experiments a small constant.
const phiBase = 4

// maxRestarts bounds the number of times one query may restart its climb
// after losing a trail to a concurrent delete.
const maxRestarts = 10000

// Config controls the concurrent MOT simulation.
type Config struct {
	// PeriodSync gates level crossings at period boundaries; disabling it
	// is an ablation (pipelining alone still guarantees consistency).
	PeriodSync bool
	// Redirects enables the paper's improved concurrent query handling
	// (§3: "We can have improved algorithm to solve this problem without
	// ever reaching the incorrect proxy node"): deletes leave short-lived
	// forwarding pointers at the stations they erase, so a query that
	// lost the trail jumps straight toward the new proxy instead of
	// re-climbing or waiting at the stale bottom.
	Redirects bool
	// Obs receives a span per issued operation plus per-node/per-level
	// metrics, timed on the simulated clock. Nil disables observability;
	// the engine's queue gauges follow the same recorder (see obs.go).
	Obs *obs.Recorder
}

type slotKey struct {
	level int
	key   int64
}

type simEntry struct {
	child overlay.Station // downward pointer; meaningless at level 0
	ver   uint64
	sp    overlay.Station
	spOK  bool
}

type simSDL struct {
	child overlay.Station
	ver   uint64
}

type simSlot struct {
	station overlay.Station
	dl      map[core.ObjectID]simEntry
	sdl     map[core.ObjectID]simSDL
	// fwd holds forwarding tombstones left by deletes when Redirects is
	// enabled: the destination of the move whose delete erased the entry.
	fwd map[core.ObjectID]graph.NodeID
}

// QueryResult records one completed simulated query.
type QueryResult struct {
	Origin   graph.NodeID
	Object   core.ObjectID
	Found    graph.NodeID
	Cost     float64
	Optimal  float64
	Restarts int
	Waited   bool
}

// MOTSim simulates concurrent MOT executions over a single-parent overlay
// (Algorithm 1's simple form; parent sets are a one-by-one refinement).
type MOTSim struct {
	eng *Engine
	ov  overlay.Overlay
	m   graph.DistanceOracle
	cfg Config

	slots map[slotKey]*simSlot
	loc   map[core.ObjectID]graph.NodeID
	ver   map[core.ObjectID]uint64

	// Same-object maintenance operations execute in issue order — the
	// serialization the paper's period scheme Φ(i) enforces for
	// closely-spaced operations (§4.1.2; see DESIGN.md). Operations for
	// different objects, and all queries, interleave freely.
	queue  map[core.ObjectID][]*moveOp
	active map[core.ObjectID]bool

	// waiters[slot][o] = queries parked at a stale bottom-level proxy,
	// resumed by the delete message carrying the new proxy.
	waiters map[slotKey]map[core.ObjectID][]func(newProxy graph.NodeID)

	meter   core.CostMeter
	results []QueryResult
	errs    []error

	// nextOp numbers operations in issue order; fault decisions hash the
	// (op, hop, attempt) identity, so numbering must be deterministic.
	nextOp uint64
	// lost records operations abandoned by the fault layer (delivery
	// failures). Unlike errs these are expected under chaos and do not
	// fail CheckInvariants; the repair path restores the trail instead.
	lost []error

	obs *obs.Recorder
}

// NewMOT builds a concurrent simulator over ov, which must produce
// single-station detection-path levels (hier.Config.UseParentSets = false).
func NewMOT(ov overlay.Overlay, eng *Engine, cfg Config) (*MOTSim, error) {
	p := ov.DPath(ov.Root().Host)
	for l, sts := range p {
		if len(sts) != 1 {
			return nil, fmt.Errorf("sim: overlay has %d stations at level %d; the concurrent simulator needs single-parent paths", len(sts), l)
		}
	}
	if cfg.Obs != nil {
		eng.SetObs(cfg.Obs)
	}
	return &MOTSim{
		eng:     eng,
		ov:      ov,
		m:       ov.Metric(),
		cfg:     cfg,
		slots:   make(map[slotKey]*simSlot),
		loc:     make(map[core.ObjectID]graph.NodeID),
		ver:     make(map[core.ObjectID]uint64),
		queue:   make(map[core.ObjectID][]*moveOp),
		active:  make(map[core.ObjectID]bool),
		waiters: make(map[slotKey]map[core.ObjectID][]func(graph.NodeID)),
		obs:     cfg.Obs,
	}, nil
}

// Meter returns the accumulated cost counters.
func (s *MOTSim) Meter() core.CostMeter { return s.meter }

// Results returns the completed query records.
func (s *MOTSim) Results() []QueryResult { return s.results }

// Errors returns protocol errors observed during the run (always empty in a
// correct execution).
func (s *MOTSim) Errors() []error { return s.errs }

// Lost returns the operations the fault layer failed (delivery budgets
// exhausted). Empty without an installed FaultInjector.
func (s *MOTSim) Lost() []error { return s.lost }

// Location returns the ground-truth proxy of o.
func (s *MOTSim) Location(o core.ObjectID) (graph.NodeID, bool) {
	v, ok := s.loc[o]
	return v, ok
}

func (s *MOTSim) slot(st overlay.Station) *simSlot {
	k := slotKey{st.Level, st.Key}
	sl, ok := s.slots[k]
	if !ok {
		sl = &simSlot{
			station: st,
			dl:      make(map[core.ObjectID]simEntry),
			sdl:     make(map[core.ObjectID]simSDL),
			fwd:     make(map[core.ObjectID]graph.NodeID),
		}
		s.slots[k] = sl
	}
	return sl
}

func (s *MOTSim) fail(format string, args ...interface{}) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// Publish stamps o's initial trail instantly (publish is the one-time
// initialization, performed before the tracked execution starts).
func (s *MOTSim) Publish(o core.ObjectID, at graph.NodeID) error {
	if _, ok := s.loc[o]; ok {
		return fmt.Errorf("sim: object %d already published", o)
	}
	span := s.obsSpan(obs.OpPublish, 0, o)
	path := s.ov.DPath(at)
	cost := 0.0
	prev := path[0][0]
	for l := 0; l < len(path); l++ {
		st := path[l][0]
		cost += s.m.Dist(prev.Host, st.Host)
		prev = st
		s.obsAttempt(span, st.Host, 0, 1)
		s.obsArrive(span, l, st.Host)
		s.stamp(span, path, l, o, 0)
	}
	s.loc[o] = at
	s.ver[o] = 0
	s.meter.PublishCost += cost
	s.meter.PublishOps++
	span.End(s.eng.Now())
	return nil
}

// stamp writes the entry for o at path[l] with the given version, handling
// SDL registration and cost. span is the operation the stamp belongs to.
func (s *MOTSim) stamp(span obs.Span, path overlay.Path, l int, o core.ObjectID, ver uint64) {
	st := path[l][0]
	var child overlay.Station
	if l > 0 {
		child = path[l-1][0]
	}
	sp, spOK := overlay.SpecialParent(path, l, 0, s.ov.SpecialOffset())
	sl := s.slot(st)
	if old, ok := sl.dl[o]; ok && old.spOK {
		s.removeSDL(old.sp, st, o)
	}
	sl.dl[o] = simEntry{child: child, ver: ver, sp: sp, spOK: spOK}
	delete(sl.fwd, o)
	span.Event(obs.EvStamp, l, int(st.Host), 0, s.eng.Now())
	if spOK {
		s.slot(sp).sdl[o] = simSDL{child: st, ver: ver}
		s.meter.SpecialCost += s.m.Dist(st.Host, sp.Host)
		span.Event(obs.EvSDL, sp.Level, int(sp.Host), s.m.Dist(st.Host, sp.Host), s.eng.Now())
	}
}

func (s *MOTSim) removeSDL(sp, child overlay.Station, o core.ObjectID) {
	sl := s.slot(sp)
	if se, ok := sl.sdl[o]; ok && se.child == child {
		delete(sl.sdl, o)
	}
}

// --- maintenance -----------------------------------------------------

type moveOp struct {
	id       uint64
	hop      int
	o        core.ObjectID
	ver      uint64
	from, to graph.NodeID
	path     overlay.Path
	pos      graph.NodeID
	cost     float64
	optimal  float64
	span     obs.Span
}

// send routes one message of a maintenance operation through the fault
// layer; each transmission attempt (including retries) costs one travel.
func (s *MOTSim) send(op *moveOp, dest graph.NodeID, fn func()) {
	d := s.m.Dist(op.pos, dest)
	op.hop++
	s.eng.Deliver(Delivery{
		Op:        op.id,
		Hop:       op.hop,
		Dest:      dest,
		Dist:      d,
		OnAttempt: func(att int) { op.cost += d; s.obsAttempt(op.span, dest, d, att) },
		Fn:        fn,
		OnFail:    func(err error) { s.abortMove(op, err) },
	})
}

// IssueMove schedules a maintenance operation at time at. The object's
// ground truth (its physical proxy) changes at the issue time; the
// directory update is queued behind any still-running maintenance operation
// of the same object and otherwise starts immediately.
func (s *MOTSim) IssueMove(o core.ObjectID, to graph.NodeID, at float64) error {
	if _, ok := s.loc[o]; !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	s.eng.At(at, func() {
		from := s.loc[o]
		if from == to {
			return
		}
		s.loc[o] = to
		s.ver[o]++
		s.nextOp++
		op := &moveOp{id: s.nextOp, o: o, ver: s.ver[o], from: from, to: to, path: s.ov.DPath(to), pos: to,
			optimal: s.m.Dist(from, to)}
		op.span = s.obsSpan(obs.OpMove, op.id, o)
		s.queue[o] = append(s.queue[o], op)
		s.pump(o)
	})
	return nil
}

// pump starts the next queued maintenance operation of o, if any and none
// is running.
func (s *MOTSim) pump(o core.ObjectID) {
	if s.active[o] || len(s.queue[o]) == 0 {
		return
	}
	op := s.queue[o][0]
	s.queue[o] = s.queue[o][1:]
	s.active[o] = true
	s.stamp(op.span, op.path, 0, o, op.ver)
	s.enterLevel(op, 1)
}

// enterLevel applies the period gate, then travels to the level-k station.
func (s *MOTSim) enterLevel(op *moveOp, k int) {
	if k >= len(op.path) {
		s.fail("sim: move %d/%d passed the root", op.o, op.ver)
		s.finishMove(op)
		return
	}
	proceed := func() {
		st := op.path[k][0]
		s.send(op, st.Host, func() { s.arriveLevel(op, k) })
	}
	if s.cfg.PeriodSync {
		phi := math.Pow(2, float64(k)) * phiBase
		boundary := math.Ceil(s.eng.Now()/phi) * phi
		if boundary > s.eng.Now() {
			op.span.Event(obs.EvWait, k, int(op.pos), boundary-s.eng.Now(), s.eng.Now())
			s.eng.At(boundary, proceed)
			return
		}
	}
	proceed()
}

// arriveLevel processes the level-k station: either the peak (an older
// entry exists — repoint and start the delete) or a fresh stamp and climb.
func (s *MOTSim) arriveLevel(op *moveOp, k int) {
	st := op.path[k][0]
	op.pos = st.Host
	s.obsArrive(op.span, k, st.Host)
	sl := s.slot(st)
	if e, ok := sl.dl[op.o]; ok {
		if e.ver >= op.ver {
			// Cannot happen under per-object serialization; defensive.
			s.fail("sim: move %d/%d overtaken at level %d", op.o, op.ver, k)
			s.finishMove(op)
			return
		}
		// Peak: repoint to the new chain, then prune the old one.
		op.span.Event(obs.EvPeak, k, int(st.Host), 0, s.eng.Now())
		s.stamp(op.span, op.path, k, op.o, op.ver)
		s.deleteStep(op, e.child)
		return
	}
	s.stamp(op.span, op.path, k, op.o, op.ver)
	s.enterLevel(op, k+1)
}

// deleteStep travels to the next station of the old trail and erases it.
func (s *MOTSim) deleteStep(op *moveOp, target overlay.Station) {
	s.send(op, target.Host, func() {
		op.pos = target.Host
		s.obsArrive(op.span, target.Level, target.Host)
		sl := s.slot(target)
		e, ok := sl.dl[op.o]
		if !ok || e.ver >= op.ver {
			// The entry was already replaced by a newer move; the newer
			// chain owns everything below.
			s.finishMove(op)
			return
		}
		delete(sl.dl, op.o)
		op.span.Event(obs.EvWipe, target.Level, int(target.Host), 0, s.eng.Now())
		if s.cfg.Redirects {
			sl.fwd[op.o] = op.to
		}
		if e.spOK {
			s.removeSDL(e.sp, target, op.o)
			s.meter.SpecialCost += s.m.Dist(target.Host, e.sp.Host)
		}
		if target.Level == 0 {
			s.resolveWaiters(target, op.o, op.to)
			s.finishMove(op)
			return
		}
		s.deleteStep(op, e.child)
	})
}

func (s *MOTSim) finishMove(op *moveOp) {
	s.meter.AddMaintSample(op.cost, op.optimal)
	op.span.End(s.eng.Now())
	s.active[op.o] = false
	s.pump(op.o)
}

// abortMove handles a maintenance message that exhausted its delivery
// budget: the move is recorded as lost, its travel so far is charged to
// recovery (not the maintenance ratio), and the object's trail is rebuilt
// from the ground truth so invariants hold at quiescence.
func (s *MOTSim) abortMove(op *moveOp, err error) {
	s.lost = append(s.lost, fmt.Errorf("sim: move %d/%d lost: %w", op.o, op.ver, err))
	s.meter.RecoveryCost += op.cost
	op.span.Event(obs.EvAbort, -1, int(op.pos), 0, s.eng.Now())
	op.span.End(s.eng.Now())
	// The repair walk is its own recovery span, sharing the failed move's
	// operation number (kind disambiguates in the export sort).
	rspan := s.obsSpan(obs.OpRecovery, op.id, op.o)
	s.repair(rspan, op.o, op.ver)
	rspan.End(s.eng.Now())
	s.active[op.o] = false
	s.pump(op.o)
}

// repair re-establishes o's trail after a failed operation left it in an
// unknown intermediate state: every entry of o is wiped and the full home
// chain of the current ground-truth proxy is re-stamped with the failed
// operation's version (the §7 fine-grained path — rebuild one object's
// chain, not the directory). Queries parked at stale proxies are released
// toward the repaired proxy.
func (s *MOTSim) repair(span obs.Span, o core.ObjectID, ver uint64) {
	keys := make([]slotKey, 0, len(s.slots))
	for k := range s.slots {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].key < keys[j].key
	})
	// One aggregate wipe event covers the whole sweep.
	span.Event(obs.EvWipe, -1, int(s.loc[o]), 0, s.eng.Now())
	for _, k := range keys {
		sl := s.slots[k]
		delete(sl.dl, o)
		delete(sl.sdl, o)
		delete(sl.fwd, o)
	}
	proxy := s.loc[o]
	path := s.ov.DPath(proxy)
	cost := 0.0
	prev := path[0][0]
	for l := 0; l < len(path); l++ {
		st := path[l][0]
		cost += s.m.Dist(prev.Host, st.Host)
		prev = st
		s.obsAttempt(span, st.Host, 0, 1)
		s.obsArrive(span, l, st.Host)
		s.stamp(span, path, l, o, ver)
	}
	s.meter.RecoveryCost += cost
	s.meter.RecoveryOps++
	// Release every query parked on o, in deterministic slot order; they
	// chase the repaired proxy (and re-anchor if the object moves again).
	for _, k := range keys {
		if byObj, ok := s.waiters[k]; ok && len(byObj[o]) > 0 {
			s.resolveWaiters(s.slots[k].station, o, proxy)
		}
	}
}

func (s *MOTSim) resolveWaiters(st overlay.Station, o core.ObjectID, newProxy graph.NodeID) {
	k := slotKey{st.Level, st.Key}
	if byObj, ok := s.waiters[k]; ok {
		ws := byObj[o]
		delete(byObj, o)
		for _, w := range ws {
			w(newProxy)
		}
	}
}

// --- queries ----------------------------------------------------------

type queryOp struct {
	id       uint64
	hop      int
	origin   graph.NodeID
	o        core.ObjectID
	pos      graph.NodeID
	cost     float64
	optimal  float64
	restarts int
	waited   bool
	lastSlot *simSlot // slot where the trail last broke (for redirects)
	span     obs.Span
}

// qsend routes one query message through the fault layer.
func (s *MOTSim) qsend(q *queryOp, dest graph.NodeID, fn func()) {
	d := s.m.Dist(q.pos, dest)
	q.hop++
	s.eng.Deliver(Delivery{
		Op:        q.id,
		Hop:       q.hop,
		Dest:      dest,
		Dist:      d,
		OnAttempt: func(att int) { q.cost += d; s.obsAttempt(q.span, dest, d, att) },
		Fn:        fn,
		OnFail: func(err error) {
			s.lost = append(s.lost, fmt.Errorf("sim: query for %d from %d lost: %w", q.o, q.origin, err))
			s.meter.RecoveryCost += q.cost
			q.span.Event(obs.EvAbort, -1, int(dest), 0, s.eng.Now())
			q.span.End(s.eng.Now())
		},
	})
}

// IssueQuery schedules a query from origin for o at time at.
func (s *MOTSim) IssueQuery(origin graph.NodeID, o core.ObjectID, at float64) error {
	if _, ok := s.loc[o]; !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	s.eng.At(at, func() {
		s.nextOp++
		q := &queryOp{id: s.nextOp, origin: origin, o: o, pos: origin}
		q.optimal = s.m.Dist(origin, s.loc[o])
		q.span = s.obsSpan(obs.OpQuery, q.id, o)
		s.climb(q, s.ov.DPath(origin), 0)
	})
	return nil
}

// climb travels up the requester's detection path looking for the object in
// DLs and SDLs (Algorithm 1 lines 19–24).
func (s *MOTSim) climb(q *queryOp, path overlay.Path, k int) {
	if k >= len(path) {
		s.fail("sim: query for %d from %d passed the root", q.o, q.origin)
		return
	}
	st := path[k][0]
	s.qsend(q, st.Host, func() {
		q.pos = st.Host
		s.obsArrive(q.span, k, st.Host)
		sl := s.slot(st)
		if _, ok := sl.dl[q.o]; ok {
			q.span.Event(obs.EvPeak, k, int(st.Host), 0, s.eng.Now())
			s.descend(q, st)
			return
		}
		if se, ok := sl.sdl[q.o]; ok {
			q.span.Event(obs.EvSDL, k, int(st.Host), 0, s.eng.Now())
			s.hopTo(q, se.child)
			return
		}
		s.climb(q, path, k+1)
	})
}

// hopTo travels to a station believed to hold the object and descends.
func (s *MOTSim) hopTo(q *queryOp, st overlay.Station) {
	s.qsend(q, st.Host, func() {
		q.pos = st.Host
		s.obsArrive(q.span, st.Level, st.Host)
		if sl := s.slot(st); true {
			if _, ok := sl.dl[q.o]; !ok {
				q.lastSlot = sl
				s.restart(q)
				return
			}
		}
		s.descend(q, st)
	})
}

// descend follows downward pointers; q.pos is already at st's host and st
// is known to hold the object.
func (s *MOTSim) descend(q *queryOp, st overlay.Station) {
	sl := s.slot(st)
	e, ok := sl.dl[q.o]
	if !ok {
		q.lastSlot = sl
		s.restart(q)
		return
	}
	if st.Level == 0 {
		if s.loc[q.o] == st.Host {
			s.complete(q, st.Host)
			return
		}
		// Stale proxy: the object moved and the delete has not arrived
		// yet. Wait for it; it carries the new proxy.
		q.waited = true
		q.span.Event(obs.EvWait, 0, int(st.Host), 0, s.eng.Now())
		k := slotKey{st.Level, st.Key}
		if s.waiters[k] == nil {
			s.waiters[k] = make(map[core.ObjectID][]func(graph.NodeID))
		}
		s.waiters[k][q.o] = append(s.waiters[k][q.o], func(newProxy graph.NodeID) {
			s.chase(q, newProxy)
		})
		return
	}
	next := e.child
	s.qsend(q, next.Host, func() {
		q.pos = next.Host
		s.obsArrive(q.span, next.Level, next.Host)
		s.descend(q, next)
	})
}

// chase forwards a resumed query to the proxy named by a delete message or
// forwarding tombstone. If the object has moved on again by arrival, the
// query re-anchors at this proxy's bottom-level slot — whose own tombstone
// (if the next delete already passed) chains the chase forward.
func (s *MOTSim) chase(q *queryOp, proxy graph.NodeID) {
	s.qsend(q, proxy, func() {
		q.pos = proxy
		s.obsArrive(q.span, 0, proxy)
		if s.loc[q.o] == proxy {
			s.complete(q, proxy)
			return
		}
		q.lastSlot = s.slots[slotKey{0, int64(proxy)}]
		s.restart(q)
	})
}

// restart re-climbs from the query's current position after a lost trail,
// or — with Redirects — follows the forwarding tombstone the delete left
// behind, heading straight for the mover's destination.
func (s *MOTSim) restart(q *queryOp) {
	q.restarts++
	q.span.Event(obs.EvRestart, -1, int(q.pos), 0, s.eng.Now())
	if q.restarts > maxRestarts {
		s.fail("sim: query for %d from %d exceeded %d restarts", q.o, q.origin, maxRestarts)
		return
	}
	// Tombstones live at the station where the trail broke; consume the
	// anchor so a failed chase cannot re-follow the same stale pointer.
	if s.cfg.Redirects && q.lastSlot != nil {
		last := q.lastSlot
		q.lastSlot = nil
		if to, ok := last.fwd[q.o]; ok && to != q.pos {
			s.chase(q, to)
			return
		}
	}
	s.climb(q, s.ov.DPath(q.pos), 0)
}

func (s *MOTSim) complete(q *queryOp, found graph.NodeID) {
	s.results = append(s.results, QueryResult{
		Origin: q.origin, Object: q.o, Found: found,
		Cost: q.cost, Optimal: q.optimal, Restarts: q.restarts, Waited: q.waited,
	})
	s.meter.AddQuerySample(q.cost, q.optimal)
	q.span.End(s.eng.Now())
}

// CheckInvariants validates quiescent-state consistency: every object's
// trail runs root → proxy with strictly usable pointers and no orphans.
// Call only after Engine.Run has drained all events.
func (s *MOTSim) CheckInvariants() error {
	if s.eng.Pending() > 0 {
		return fmt.Errorf("sim: invariants checked before quiescence (%d events pending)", s.eng.Pending())
	}
	for _, err := range s.errs {
		return fmt.Errorf("sim: protocol error during run: %w", err)
	}
	for o, proxy := range s.loc {
		st := s.ov.Root()
		onTrail := map[slotKey]bool{}
		for {
			sl := s.slot(st)
			e, ok := sl.dl[o]
			if !ok {
				return fmt.Errorf("sim: trail for %d broken at %v", o, st)
			}
			onTrail[slotKey{st.Level, st.Key}] = true
			if st.Level == 0 {
				if st.Host != proxy {
					return fmt.Errorf("sim: trail for %d ends at %d, proxy %d", o, st.Host, proxy)
				}
				break
			}
			st = e.child
		}
		for k, sl := range s.slots {
			if _, has := sl.dl[o]; has && !onTrail[k] {
				return fmt.Errorf("sim: orphaned entry for %d at %v", o, sl.station)
			}
		}
	}
	return nil
}

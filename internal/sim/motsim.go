package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// motObject is one object's state in MOTSim. Its flights point to it, so
// only the calls that issue them look it up.
type motObject struct {
	proxy graph.NodeID // the ground truth

	// Same-object maintenance operations execute in issue order — the
	// serialization the paper's period scheme Φ(i) enforces for
	// closely-spaced operations (§4.1.2; see DESIGN.md). Operations for
	// different objects, and all queries, interleave freely.
	queue  []*flight
	active bool

	// fwd[st] is the tombstone a delete left at st under Redirects: the
	// destination of the move that erased the object's entry there.
	fwd map[overlay.Station]graph.NodeID
}

// MOTSim simulates concurrent MOT executions over a single-parent overlay
// (Algorithm 1's simple form; parent sets are a one-by-one refinement). It
// drives core's station handler, delivering each next station at now +
// dist, and keeps the concurrent machinery: Φ(i) gating, per-object move
// queues, stale-proxy waiters, redirect tombstones and query restarts.
type MOTSim struct {
	eng *Engine
	m   graph.DistanceOracle
	cfg Config

	h    *core.Handler
	objs map[core.ObjectID]*motObject

	// waiters[slot][o] = queries parked at a stale bottom-level proxy,
	// resumed by the delete message carrying the new proxy.
	waiters map[overlay.Station]map[core.ObjectID][]*flight

	results []QueryResult
	errs    []error

	// nextOp numbers operations in issue order; fault decisions hash the
	// (op, hop, attempt) identity, so numbering must be deterministic.
	// Spans share these numbers (publishes, unnumbered, use 0 and differ
	// by object), so instrumentation never perturbs fault decisions.
	nextOp uint64
	// lost records operations abandoned by the fault layer (delivery
	// failures). Unlike errs these are expected under chaos and do not
	// fail CheckInvariants; the repair path restores the trail instead.
	lost []error

	obs *obs.Recorder // spans and metrics on the simulated clock; nil disables
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
		m:       ov.Metric(),
		cfg:     cfg,
		h:       core.NewHandler(ov, core.Config{}),
		objs:    make(map[core.ObjectID]*motObject),
		waiters: make(map[overlay.Station]map[core.ObjectID][]*flight),
		obs:     cfg.Obs,
	}, nil
}

// reserve sizes the engine's scheduled lane for n more events.
func (s *MOTSim) reserve(n int) { s.eng.reserve(n) }

// Meter returns the accumulated cost counters.
func (s *MOTSim) Meter() core.CostMeter { return s.h.Meter }

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
	if obj, ok := s.objs[o]; ok {
		return obj.proxy, true
	}
	return 0, false
}

func (s *MOTSim) fail(format string, args ...interface{}) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// Publish stamps o's initial trail instantly (publish is the one-time
// initialization, performed before the tracked execution starts).
func (s *MOTSim) Publish(o core.ObjectID, at graph.NodeID) error {
	if err := s.h.CheckSensor(at); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if _, ok := s.objs[o]; ok {
		return fmt.Errorf("sim: object %d already published", o)
	}
	m := s.h.NewMsg(core.PublishMsg, o, 0, at)
	m.Span = s.obs.StartSpan(obs.OpPublish, 0, int(o), s.eng.Now())
	s.instant(&m)
	s.objs[o] = &motObject{proxy: at}
	s.h.Meter.PublishCost += m.Cost
	s.h.Meter.PublishOps++
	m.Span.End(s.eng.Now())
	return nil
}

// instant applies a publish-shaped walk at once, with no engine events.
func (s *MOTSim) instant(m *core.Msg) {
	m.Now = s.eng.Now()
	s.h.Walk(m, func(st overlay.Station) {
		s.obs.Attempt(m.Span, int(st.Host), 0, 1, m.Now)
		s.obs.Arrive(m.Span, st.Level, int(st.Host), m.Now)
	})
}

// arrive lands m at its next station.
func (s *MOTSim) arrive(m *core.Msg) {
	m.At = m.Next
	s.obs.Arrive(m.Span, m.At.Level, int(m.At.Host), s.eng.Now())
}

// step applies the handler at m's station on the simulated clock.
func (s *MOTSim) step(m *core.Msg) core.Verdict {
	m.Now = s.eng.Now()
	v := s.h.Step(m)
	for v == core.LevelDone {
		v = s.h.Step(m)
	}
	return v
}

// --- maintenance -----------------------------------------------------

// flight is one operation in flight. An operation has at most one
// message pending, and a parked query none, so the flight itself is the
// engine event of its pending leg.
type flight struct {
	s        *MOTSim
	obj      *motObject
	id       uint64
	hop      int
	msg      core.Msg
	optimal  float64
	origin   graph.NodeID // queries only, like restarts and waited
	restarts int
	waited   bool

	// The pending leg, and the destination and travel distance of its
	// message (a gate wait keeps the last hop's).
	leg  leg
	dest graph.NodeID
	dist float64
}

// leg names what a flight does when its pending event fires.
type leg uint8

const (
	gateLeg   leg = iota // the Φ(i) wait is over: send the climb on
	climbLeg             // a move reaches the next level's station
	deleteLeg            // a delete reaches the next station of the old trail
	queryLeg             // a query reaches the next station the handler named
	chaseLeg             // a resumed query reaches the proxy it chases
)

// Fire runs op's pending leg.
func (op *flight) Fire() {
	s, m := op.s, &op.msg
	switch op.leg {
	case gateLeg:
		s.send(op, m.Next.Host, climbLeg)
	case climbLeg:
		s.arrive(m)
		s.climbed(op, s.step(m))
	case deleteLeg:
		s.arrive(m)
		s.erased(op, s.step(m))
	case queryLeg:
		s.arrive(m)
		m.Truth = op.obj.proxy
		s.probed(op, s.step(m))
	case chaseLeg:
		s.chased(op)
	}
}

// Attempt charges one transmission attempt of op's message: each attempt,
// retries included, costs one travel.
func (op *flight) Attempt(n int) {
	m := &op.msg
	m.Cost += op.dist
	op.s.obs.Attempt(m.Span, int(op.dest), op.dist, n, op.s.eng.Now())
}

// Fail abandons op after its message exhausted its delivery budget.
func (op *flight) Fail(err error) {
	s, m := op.s, &op.msg
	if m.Kind == core.MoveMsg {
		s.abortMove(op, err)
		return
	}
	s.lost = append(s.lost, fmt.Errorf("sim: query for %d from %d lost: %w", m.Obj, op.origin, err))
	s.h.Meter.RecoveryCost += m.Cost
	m.Span.Event(obs.EvAbort, -1, int(op.dest), 0, s.eng.Now())
	m.Span.End(s.eng.Now())
}

// send routes op's message to dest through the fault layer, to run leg
// there.
func (s *MOTSim) send(op *flight, dest graph.NodeID, leg leg) {
	op.leg, op.dest, op.dist = leg, dest, s.m.Dist(op.msg.At.Host, dest)
	op.hop++
	s.eng.Deliver(Delivery{Op: op.id, Hop: op.hop, Dest: dest, Dist: op.dist, Msg: op})
}

// IssueMove schedules a maintenance operation at time at. The object's
// ground truth (its physical proxy) changes at the issue time; the
// directory update is queued behind any still-running maintenance operation
// of the same object and otherwise starts immediately.
func (s *MOTSim) IssueMove(o core.ObjectID, to graph.NodeID, at float64) error {
	if err := s.h.CheckSensor(to); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	obj, ok := s.objs[o]
	if !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	s.eng.At(at, func() {
		from := obj.proxy
		if from == to {
			return
		}
		obj.proxy = to
		s.nextOp++
		// The operation number is also the stamped version.
		op := &flight{s: s, obj: obj, id: s.nextOp, msg: s.h.NewMsg(core.MoveMsg, o, s.nextOp, to), optimal: s.m.Dist(from, to)}
		op.msg.Span = s.obs.StartSpan(obs.OpMove, op.id, int(o), s.eng.Now())
		obj.queue = append(obj.queue, op)
		s.pump(obj)
	})
	return nil
}

// pump starts the next queued maintenance operation of obj, if any and
// none is running.
func (s *MOTSim) pump(obj *motObject) {
	if obj.active || len(obj.queue) == 0 {
		return
	}
	op, rest := popFront(obj.queue)
	obj.queue = rest
	obj.active = true
	s.climbed(op, s.step(&op.msg))
}

// popFront removes q's first element and returns it with the rest of q.
// It shifts the rest down instead of reslicing past the head, so an
// object's queue keeps one backing array and later appends do not
// regrow it. An object's queue holds the moves issued while one of its
// moves is in flight.
func popFront[T any](q []T) (T, []T) {
	first := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero // drop the vacated reference
	return first, q[:n]
}

// climbed reacts to the handler at the station a climbing move stamped.
func (s *MOTSim) climbed(op *flight, v core.Verdict) {
	m := &op.msg
	if v != core.Overtaken {
		delete(op.obj.fwd, m.At)
	}
	switch {
	case v != core.Forward:
		// Overtaken, or past the root: impossible under per-object
		// serialization; defensive.
		s.fail("sim: move %d/%d stopped: %v at %v", m.Obj, m.Ver, v, m.At)
		s.finishMove(op)
	case m.Climbing():
		s.enterLevel(op)
	default:
		s.deleteStep(op) // the peak: prune the old chain
	}
}

// enterLevel applies the period gate, then travels to the next level.
func (s *MOTSim) enterLevel(op *flight) {
	m := &op.msg
	if s.cfg.PeriodSync {
		k := m.Next.Level
		phi := math.Pow(2, float64(k)) * phiBase
		boundary := math.Ceil(s.eng.Now()/phi) * phi
		if boundary > s.eng.Now() {
			m.Span.Event(obs.EvWait, k, int(m.At.Host), boundary-s.eng.Now(), s.eng.Now())
			op.leg = gateLeg
			s.eng.schedule(boundary, op)
			return
		}
	}
	s.send(op, m.Next.Host, climbLeg)
}

// deleteStep travels to the next station of the old trail and erases it.
func (s *MOTSim) deleteStep(op *flight) {
	s.send(op, op.msg.Next.Host, deleteLeg)
}

// erased reacts to the handler at the station a delete reached.
func (s *MOTSim) erased(op *flight, v core.Verdict) {
	m := &op.msg
	switch v {
	case core.Forward:
		s.tombstone(op)
		s.deleteStep(op)
	case core.Done:
		s.tombstone(op)
		s.resolveWaiters(m.At, m.Obj, m.Owner)
		s.finishMove(op)
	default:
		// The entry was already replaced by a newer move; the newer
		// chain owns everything below.
		s.finishMove(op)
	}
}

// tombstone leaves the mover's destination where op's delete just erased.
func (s *MOTSim) tombstone(op *flight) {
	if !s.cfg.Redirects {
		return
	}
	if op.obj.fwd == nil {
		op.obj.fwd = make(map[overlay.Station]graph.NodeID)
	}
	op.obj.fwd[op.msg.At] = op.msg.Owner
}

func (s *MOTSim) finishMove(op *flight) {
	s.h.Meter.AddMaintSample(op.msg.Cost, op.optimal)
	op.msg.Span.End(s.eng.Now())
	op.obj.active = false
	s.pump(op.obj)
}

// abortMove handles a maintenance message that exhausted its delivery
// budget: the move is recorded as lost, its travel so far is charged to
// recovery (not the maintenance ratio), and the object's trail is rebuilt
// from the ground truth so invariants hold at quiescence.
func (s *MOTSim) abortMove(op *flight, err error) {
	m := &op.msg
	s.lost = append(s.lost, fmt.Errorf("sim: move %d/%d lost: %w", m.Obj, m.Ver, err))
	s.h.Meter.RecoveryCost += m.Cost
	m.Span.Event(obs.EvAbort, -1, int(m.At.Host), 0, s.eng.Now())
	m.Span.End(s.eng.Now())
	// The repair walk is its own recovery span, sharing the failed move's
	// operation number (kind disambiguates in the export sort).
	rspan := s.obs.StartSpan(obs.OpRecovery, op.id, int(m.Obj), s.eng.Now())
	s.repair(rspan, op)
	rspan.End(s.eng.Now())
	op.obj.active = false
	s.pump(op.obj)
}

// repair re-establishes the trail of failed operation op's object, which
// op left in an unknown intermediate state: core's wipe, then the home
// chain of the ground-truth proxy re-stamped at op's version (later
// queued moves carry higher ones) — the §7 fine-grained path. Queries
// parked at stale proxies are released toward the repaired proxy.
func (s *MOTSim) repair(span obs.Span, op *flight) {
	obj, o := op.obj, op.msg.Obj
	proxy := obj.proxy
	m := s.h.NewMsg(core.PublishMsg, o, op.msg.Ver, proxy)
	m.Span, m.Now = span, s.eng.Now()
	s.h.Wipe(&m)
	obj.fwd = nil
	s.instant(&m)
	s.h.Meter.RecoveryCost += m.Cost
	s.h.Meter.RecoveryOps++
	// Release every query parked on o, in deterministic slot order; they
	// chase the repaired proxy (and re-anchor if the object moves again).
	keys := make([]overlay.Station, 0, len(s.waiters))
	for k, byObj := range s.waiters {
		if len(byObj[o]) > 0 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b overlay.Station) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Key, b.Key))
	})
	for _, k := range keys {
		s.resolveWaiters(k, o, proxy)
	}
}

func (s *MOTSim) resolveWaiters(st overlay.Station, o core.ObjectID, newProxy graph.NodeID) {
	if byObj, ok := s.waiters[st]; ok {
		qs := byObj[o]
		delete(byObj, o)
		for _, q := range qs {
			s.chase(q, newProxy)
		}
	}
}

// --- queries ----------------------------------------------------------

// IssueQuery schedules a query from origin for o at time at.
func (s *MOTSim) IssueQuery(origin graph.NodeID, o core.ObjectID, at float64) error {
	if err := s.h.CheckSensor(origin); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	obj, ok := s.objs[o]
	if !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	s.eng.At(at, func() {
		s.nextOp++
		q := &flight{s: s, obj: obj, id: s.nextOp, msg: s.h.NewMsg(core.QueryMsg, o, 0, origin), origin: origin, optimal: s.m.Dist(origin, obj.proxy)}
		q.msg.Span = s.obs.StartSpan(obs.OpQuery, q.id, int(o), s.eng.Now())
		s.forward(q)
	})
	return nil
}

// forward carries the query to the next station the handler named (up
// the path, across an SDL shortcut, or down the trail) and applies it.
func (s *MOTSim) forward(q *flight) {
	s.send(q, q.msg.Next.Host, queryLeg)
}

// probed reacts to the handler at the station a query reached.
func (s *MOTSim) probed(q *flight, v core.Verdict) {
	m := &q.msg
	switch v {
	case core.Forward:
		s.forward(q)
	case core.Done:
		s.complete(q)
	case core.StaleProxy:
		s.park(q)
	case core.TrailLost:
		if m.Climbing() {
			s.fail("sim: query for %d from %d passed the root", m.Obj, q.origin)
			return
		}
		s.restart(q)
	}
}

// park holds a query at a stale proxy: the object moved and the delete has
// not arrived yet. The delete resumes it; it carries the new proxy.
func (s *MOTSim) park(q *flight) {
	m := &q.msg
	q.waited = true
	m.Span.Event(obs.EvWait, 0, int(m.At.Host), 0, s.eng.Now())
	if s.waiters[m.At] == nil {
		s.waiters[m.At] = make(map[core.ObjectID][]*flight)
	}
	s.waiters[m.At][m.Obj] = append(s.waiters[m.At][m.Obj], q)
}

// chase forwards a resumed query to the proxy named by a delete message or
// forwarding tombstone. If the object has moved on again by arrival, the
// query re-anchors at this proxy's bottom-level slot — whose own tombstone
// (if the next delete already passed) chains the chase forward.
func (s *MOTSim) chase(q *flight, proxy graph.NodeID) {
	s.send(q, proxy, chaseLeg)
}

// chased lands a chase at the proxy it was sent to.
func (s *MOTSim) chased(q *flight) {
	m, proxy := &q.msg, q.dest
	m.At = overlay.Station{Level: 0, Key: int64(proxy), Host: proxy}
	s.obs.Arrive(m.Span, 0, int(proxy), s.eng.Now())
	if q.obj.proxy == proxy {
		s.complete(q)
		return
	}
	s.restart(q)
}

// restart re-climbs from where the query stands after a lost trail, or —
// with Redirects — follows the tombstone a delete left there, heading
// straight for the mover's destination.
func (s *MOTSim) restart(q *flight) {
	m := &q.msg
	q.restarts++
	m.Span.Event(obs.EvRestart, -1, int(m.At.Host), 0, s.eng.Now())
	if q.restarts > maxRestarts {
		s.fail("sim: query for %d from %d exceeded %d restarts", m.Obj, q.origin, maxRestarts)
		return
	}
	if s.cfg.Redirects {
		if to, ok := q.obj.fwd[m.At]; ok && to != m.At.Host {
			s.chase(q, to)
			return
		}
	}
	fresh := s.h.NewMsg(core.QueryMsg, m.Obj, 0, m.At.Host)
	fresh.Cost, fresh.Span = m.Cost, m.Span
	q.msg = fresh
	s.forward(q)
}

func (s *MOTSim) complete(q *flight) {
	m := &q.msg
	s.results = append(s.results, QueryResult{
		Origin: q.origin, Object: m.Obj, Found: m.At.Host,
		Cost: m.Cost, Optimal: q.optimal, Restarts: q.restarts, Waited: q.waited,
	})
	s.h.Meter.AddQuerySample(m.Cost, q.optimal)
	m.Span.End(s.eng.Now())
}

// CheckInvariants runs core's consistency check. Call only after
// Engine.Run has drained all events.
func (s *MOTSim) CheckInvariants() error {
	if s.eng.Pending() > 0 {
		return fmt.Errorf("sim: invariants checked before quiescence (%d events pending)", s.eng.Pending())
	}
	for _, err := range s.errs {
		return fmt.Errorf("sim: protocol error during run: %w", err)
	}
	loc := make(map[core.ObjectID]graph.NodeID, len(s.objs))
	for o, obj := range s.objs {
		loc[o] = obj.proxy
	}
	return s.h.CheckInvariants(loc)
}

package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/treedir"
)

// TreeSim simulates concurrent executions of the message-pruning tree
// baselines (STUN, Z-DAT) under the same timing model as MOTSim. It
// drives treedir's per-node handler, delivering each next tree node at
// now + dist: same-object maintenance serializes in issue order, and
// queries interleave freely, wait at a stale proxy for the delete that
// carries the new one, and restart when they lose the trail.
type TreeSim struct {
	eng  *Engine
	t    *treedir.Tree
	m    *graph.Metric
	h    *treedir.Handler
	objs map[core.ObjectID]*treeObject

	// waiters holds the queries parked at a stale proxy's leaf, resumed
	// by the delete that erases it.
	waiters map[parked][]*treeFlight

	results []QueryResult
	errs    []error
}

// treeObject is one object's state in TreeSim: its proxy, and its moves
// queued behind the one that runs. Its flights point to it.
type treeObject struct {
	proxy  graph.NodeID
	queue  []*treeFlight
	active bool
}

// parked names a leaf where queries for an object wait.
type parked struct {
	node int
	o    core.ObjectID
}

// treeFlight is one tree operation in flight, and the engine event of its
// next hop or its chase: it has at most one pending.
type treeFlight struct {
	s        *TreeSim
	obj      *treeObject
	msg      treedir.Msg
	optimal  float64
	origin   graph.NodeID // queries only, like restarts and waited
	restarts int
	waited   bool
	chasing  bool         // the pending event is a chase to proxy
	proxy    graph.NodeID // the proxy a resumed query chases
}

// Fire lands op's pending hop or chase.
func (op *treeFlight) Fire() {
	s, m := op.s, &op.msg
	if op.chasing {
		op.chasing = false
		m.At = s.t.Leaf(op.proxy)
		if op.obj.proxy == op.proxy {
			s.complete(op)
			return
		}
		s.restart(op)
		return
	}
	m.At = m.Next
	if m.Kind == core.QueryMsg {
		m.Truth = op.obj.proxy
	}
	s.react(op, s.h.Step(m))
}

// NewTree builds a concurrent simulator over a finalized baseline tree. tc
// carries the baseline's query discipline (sink queries for STUN, shortcuts
// for Z-DAT+SC).
func NewTree(t *treedir.Tree, m *graph.Metric, eng *Engine, tc treedir.Config) (*TreeSim, error) {
	h, err := treedir.NewHandler(t, m, tc)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &TreeSim{
		eng: eng, t: t, m: m, h: h,
		objs:    make(map[core.ObjectID]*treeObject),
		waiters: make(map[parked][]*treeFlight),
	}, nil
}

// reserve sizes the engine's scheduled lane for n more events.
func (s *TreeSim) reserve(n int) { s.eng.reserve(n) }

// Meter returns the accumulated cost counters.
func (s *TreeSim) Meter() core.CostMeter { return s.h.Meter }

// Results returns completed query records.
func (s *TreeSim) Results() []QueryResult { return s.results }

// Errors returns protocol errors observed during the run.
func (s *TreeSim) Errors() []error { return s.errs }

func (s *TreeSim) fail(format string, args ...interface{}) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// Publish stamps o's initial leaf-to-root trail instantly.
func (s *TreeSim) Publish(o core.ObjectID, at graph.NodeID) error {
	if _, ok := s.objs[o]; ok {
		return fmt.Errorf("sim: object %d already published", o)
	}
	m, err := s.h.NewMsg(core.PublishMsg, o, at)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.h.Walk(&m)
	s.objs[o] = &treeObject{proxy: at}
	s.h.Meter.PublishCost += m.Cost
	s.h.Meter.PublishOps++
	return nil
}

// IssueMove schedules a maintenance operation at time at. The object's
// proxy changes at the issue time; the tree update queues behind any
// still-running move of the same object.
func (s *TreeSim) IssueMove(o core.ObjectID, to graph.NodeID, at float64) error {
	obj, ok := s.objs[o]
	if !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	if s.t.Leaf(to) < 0 {
		return fmt.Errorf("sim: sensor %d has no leaf", to)
	}
	// The message is built when the move is due: the engine holds every
	// scheduled move at once, so its closure stays small.
	s.eng.At(at, func() {
		from := obj.proxy
		if from == to {
			return
		}
		obj.proxy = to
		m, _ := s.h.NewMsg(core.MoveMsg, o, to) // to's leaf is checked above
		obj.queue = append(obj.queue, &treeFlight{s: s, obj: obj, msg: m, optimal: s.m.Dist(from, to)})
		s.pump(obj)
	})
	return nil
}

// pump starts obj's next queued move, if any and none is running: the new
// proxy's leaf is stamped at once.
func (s *TreeSim) pump(obj *treeObject) {
	if obj.active || len(obj.queue) == 0 {
		return
	}
	op, rest := popFront(obj.queue)
	obj.queue = rest
	obj.active = true
	s.react(op, s.h.Step(&op.msg))
}

// IssueQuery schedules a query from origin for o at time at.
func (s *TreeSim) IssueQuery(origin graph.NodeID, o core.ObjectID, at float64) error {
	obj, ok := s.objs[o]
	if !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	if s.t.Leaf(origin) < 0 {
		return fmt.Errorf("sim: sensor %d has no leaf", origin)
	}
	s.eng.At(at, func() {
		m, _ := s.h.NewMsg(core.QueryMsg, o, origin) // origin's leaf is checked above
		s.send(&treeFlight{s: s, obj: obj, msg: m, origin: origin, optimal: s.m.Dist(origin, obj.proxy)})
	})
	return nil
}

// send carries op's message to its next tree node, one event per hop,
// and applies the handler there. A query's first hop is sent even when
// it starts in place.
func (s *TreeSim) send(op *treeFlight) {
	m := &op.msg
	d := s.m.Dist(s.t.Host(m.At), s.t.Host(m.Next))
	m.Cost += d
	s.eng.schedule(s.eng.Now()+d, op)
}

// react answers the handler's verdict at the node op's message reached.
func (s *TreeSim) react(op *treeFlight, v core.Verdict) {
	m := &op.msg
	switch {
	case v == core.Forward:
		s.send(op)
	case m.Kind == core.MoveMsg:
		if v == core.Done {
			s.resolveWaiters(m.At, m.Obj, m.Owner)
		} else {
			// Past the root, or an old branch already gone: impossible
			// under per-object serialization; defensive.
			s.fail("sim: tree move of %d to %d stopped: %v at node %d", m.Obj, m.Owner, v, m.At)
		}
		s.finishMove(op)
	case v == core.Done:
		s.complete(op)
	case v == core.StaleProxy:
		s.park(op)
	case m.Climbing():
		s.fail("sim: tree query for %d from %d passed the root", m.Obj, op.origin)
	default:
		s.restart(op)
	}
}

func (s *TreeSim) finishMove(op *treeFlight) {
	s.h.Meter.AddMaintSample(op.msg.Cost, op.optimal)
	op.obj.active = false
	s.pump(op.obj)
}

// park holds a query at a stale proxy's leaf: the object moved and the
// delete has not arrived yet. The delete resumes it; it carries the new
// proxy.
func (s *TreeSim) park(q *treeFlight) {
	q.waited = true
	k := parked{q.msg.At, q.msg.Obj}
	s.waiters[k] = append(s.waiters[k], q)
}

func (s *TreeSim) resolveWaiters(node int, o core.ObjectID, newProxy graph.NodeID) {
	k := parked{node, o}
	qs := s.waiters[k]
	delete(s.waiters, k)
	for _, q := range qs {
		s.chase(q, newProxy)
	}
}

// chase sends a resumed query straight to the proxy the delete named; if
// the object has moved on by arrival, the query restarts from there.
func (s *TreeSim) chase(q *treeFlight, proxy graph.NodeID) {
	m := &q.msg
	d := s.m.Dist(s.t.Host(m.At), proxy)
	m.Cost += d
	q.chasing, q.proxy = true, proxy
	s.eng.schedule(s.eng.Now()+d, q)
}

// restart issues the query afresh from the sensor where it lost the
// trail, keeping the cost it has paid.
func (s *TreeSim) restart(q *treeFlight) {
	m := &q.msg
	q.restarts++
	if q.restarts > maxRestarts {
		s.fail("sim: tree query for %d from %d exceeded %d restarts", m.Obj, q.origin, maxRestarts)
		return
	}
	fresh, err := s.h.NewMsg(core.QueryMsg, m.Obj, s.t.Host(m.At))
	if err != nil {
		s.fail("sim: tree query for %d from %d: %v", m.Obj, q.origin, err)
		return
	}
	fresh.Cost = m.Cost
	q.msg = fresh
	s.send(q)
}

func (s *TreeSim) complete(q *treeFlight) {
	m := &q.msg
	s.results = append(s.results, QueryResult{
		Origin: q.origin, Object: m.Obj, Found: s.t.Host(m.At),
		Cost: m.Cost, Optimal: q.optimal, Restarts: q.restarts, Waited: q.waited,
	})
	s.h.Meter.AddQuerySample(m.Cost, q.optimal)
}

// CheckInvariants runs treedir's trail check. Call only after Engine.Run
// has drained all events.
func (s *TreeSim) CheckInvariants() error {
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

package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/treedir"
)

// TreeSim simulates concurrent executions of the message-pruning tree
// baselines (STUN, Z-DAT) under the same timing model as MOTSim: messages
// take distance time, same-object maintenance serializes in issue order,
// queries interleave freely and chase moving objects through delete
// notifications.
type TreeSim struct {
	eng *Engine
	t   *treedir.Tree
	m   *graph.Metric
	cfg Config
	tc  treedir.Config

	dl  []map[core.ObjectID]treeEntry    // per tree node
	fwd []map[core.ObjectID]graph.NodeID // forwarding tombstones (Redirects)
	loc map[core.ObjectID]graph.NodeID
	ver map[core.ObjectID]uint64

	queue  map[core.ObjectID][]*treeMove
	active map[core.ObjectID]bool

	waiters map[int]map[core.ObjectID][]func(graph.NodeID)

	meter   core.CostMeter
	results []QueryResult
	errs    []error
}

type treeEntry struct {
	child int // child tree node holding the object; -1 at the proxy leaf
	ver   uint64
}

type treeMove struct {
	o        core.ObjectID
	ver      uint64
	from, to graph.NodeID
	cost     float64
	optimal  float64
	pos      graph.NodeID
}

// NewTree builds a concurrent simulator over a finalized baseline tree. tc
// carries the baseline's query discipline (sink queries for STUN, shortcuts
// for Z-DAT+SC).
func NewTree(t *treedir.Tree, m *graph.Metric, eng *Engine, cfg Config, tc treedir.Config) (*TreeSim, error) {
	if t.Root() < 0 {
		return nil, fmt.Errorf("sim: tree not finalized")
	}
	dl := make([]map[core.ObjectID]treeEntry, t.Len())
	fwd := make([]map[core.ObjectID]graph.NodeID, t.Len())
	for i := range dl {
		dl[i] = make(map[core.ObjectID]treeEntry)
		fwd[i] = make(map[core.ObjectID]graph.NodeID)
	}
	return &TreeSim{
		eng: eng, t: t, m: m, cfg: cfg, tc: tc,
		dl:      dl,
		fwd:     fwd,
		loc:     make(map[core.ObjectID]graph.NodeID),
		ver:     make(map[core.ObjectID]uint64),
		queue:   make(map[core.ObjectID][]*treeMove),
		active:  make(map[core.ObjectID]bool),
		waiters: make(map[int]map[core.ObjectID][]func(graph.NodeID)),
	}, nil
}

// Meter returns the accumulated cost counters.
func (s *TreeSim) Meter() core.CostMeter { return s.meter }

// Results returns completed query records.
func (s *TreeSim) Results() []QueryResult { return s.results }

// Errors returns protocol errors observed during the run.
func (s *TreeSim) Errors() []error { return s.errs }

func (s *TreeSim) fail(format string, args ...interface{}) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// Publish stamps o's initial leaf-to-root trail instantly.
func (s *TreeSim) Publish(o core.ObjectID, at graph.NodeID) error {
	if _, ok := s.loc[o]; ok {
		return fmt.Errorf("sim: object %d already published", o)
	}
	leaf := s.t.Leaf(at)
	if leaf < 0 {
		return fmt.Errorf("sim: sensor %d has no leaf", at)
	}
	cost := 0.0
	child := -1
	for id := leaf; id != -1; id = s.t.Parent(id) {
		if child != -1 {
			cost += s.m.Dist(s.t.Host(child), s.t.Host(id))
		}
		s.dl[id][o] = treeEntry{child: child}
		child = id
	}
	s.loc[o] = at
	s.meter.PublishCost += cost
	s.meter.PublishOps++
	return nil
}

// IssueMove schedules a maintenance operation at time at.
func (s *TreeSim) IssueMove(o core.ObjectID, to graph.NodeID, at float64) error {
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
		op := &treeMove{o: o, ver: s.ver[o], from: from, to: to, pos: to, optimal: s.m.Dist(from, to)}
		s.queue[o] = append(s.queue[o], op)
		s.pump(o)
	})
	return nil
}

func (s *TreeSim) pump(o core.ObjectID) {
	if s.active[o] || len(s.queue[o]) == 0 {
		return
	}
	op := s.queue[o][0]
	s.queue[o] = s.queue[o][1:]
	s.active[o] = true
	leaf := s.t.Leaf(op.to)
	if e, ok := s.dl[leaf][op.o]; ok {
		// The new proxy's tree node is already on the trail (it was an
		// ancestor of the old proxy): repoint it as the trail's end and
		// prune the stale branch below.
		s.dl[leaf][op.o] = treeEntry{child: -1, ver: op.ver}
		s.deleteStep(op, leaf, e.child)
		return
	}
	s.dl[leaf][op.o] = treeEntry{child: -1, ver: op.ver}
	delete(s.fwd[leaf], op.o)
	s.climbMove(op, leaf, s.t.Parent(leaf))
}

// climbMove hops the insert from tree node prev to tree node id.
func (s *TreeSim) climbMove(op *treeMove, prev, id int) {
	if id == -1 {
		s.fail("sim: tree move %d/%d passed the root", op.o, op.ver)
		s.finish(op)
		return
	}
	d := s.m.Dist(s.t.Host(prev), s.t.Host(id))
	op.cost += d
	s.eng.After(d, func() {
		op.pos = s.t.Host(id)
		if e, ok := s.dl[id][op.o]; ok {
			oldChild := e.child
			s.dl[id][op.o] = treeEntry{child: prev, ver: op.ver}
			if oldChild == -1 {
				// The peak is the old proxy leaf itself (spanning trees:
				// an ancestor sensor was the proxy). Nothing to prune.
				s.resolveWaiters(id, op.o, op.to)
				s.finish(op)
				return
			}
			s.deleteStep(op, id, oldChild)
			return
		}
		s.dl[id][op.o] = treeEntry{child: prev, ver: op.ver}
		s.climbMove(op, id, s.t.Parent(id))
	})
}

// deleteStep prunes the old branch downward from tree node at toward child.
func (s *TreeSim) deleteStep(op *treeMove, at, child int) {
	if child == -1 {
		// at was the old proxy leaf; its entry was already removed by the
		// caller (or it was the peak). Resolve waiters and finish.
		s.finish(op)
		return
	}
	d := s.m.Dist(s.t.Host(at), s.t.Host(child))
	op.cost += d
	s.eng.After(d, func() {
		op.pos = s.t.Host(child)
		e, ok := s.dl[child][op.o]
		if !ok {
			s.fail("sim: tree delete %d/%d lost the trail at node %d", op.o, op.ver, child)
			s.finish(op)
			return
		}
		delete(s.dl[child], op.o)
		if s.cfg.Redirects {
			s.fwd[child][op.o] = op.to
		}
		if e.child == -1 {
			s.resolveWaiters(child, op.o, op.to)
			s.finish(op)
			return
		}
		s.deleteStep(op, child, e.child)
	})
}

func (s *TreeSim) finish(op *treeMove) {
	s.meter.AddMaintSample(op.cost, op.optimal)
	s.active[op.o] = false
	s.pump(op.o)
}

func (s *TreeSim) resolveWaiters(node int, o core.ObjectID, newProxy graph.NodeID) {
	if byObj, ok := s.waiters[node]; ok {
		ws := byObj[o]
		delete(byObj, o)
		for _, w := range ws {
			w(newProxy)
		}
	}
}

// --- queries ----------------------------------------------------------

// treeQuery is one query in flight over the tree.
type treeQuery struct {
	origin   graph.NodeID
	o        core.ObjectID
	pos      graph.NodeID
	cost     float64
	optimal  float64
	restarts int
	waited   bool
}

// IssueQuery schedules a query from origin for o at time at.
func (s *TreeSim) IssueQuery(origin graph.NodeID, o core.ObjectID, at float64) error {
	if _, ok := s.loc[o]; !ok {
		return fmt.Errorf("sim: object %d not published", o)
	}
	s.eng.At(at, func() {
		q := &treeQuery{origin: origin, o: o, pos: origin}
		q.optimal = s.m.Dist(origin, s.loc[o])
		s.startQuery(q, origin)
	})
	return nil
}

func (s *TreeSim) startQuery(q *treeQuery, from graph.NodeID) {
	if s.tc.SinkQueries {
		root := s.t.Root()
		d := s.m.Dist(q.pos, s.t.Host(root))
		q.cost += d
		s.eng.After(d, func() {
			q.pos = s.t.Host(root)
			if _, ok := s.dl[root][q.o]; !ok {
				s.fail("sim: root lost object %d", q.o)
				return
			}
			s.descend(q, root)
		})
		return
	}
	leaf := s.t.Leaf(from)
	if leaf < 0 {
		s.fail("sim: query origin %d has no leaf", from)
		return
	}
	s.climbQuery(q, -1, leaf)
}

func (s *TreeSim) climbQuery(q *treeQuery, prev, id int) {
	if id == -1 {
		s.fail("sim: query for %d passed the root", q.o)
		return
	}
	d := 0.0
	if prev != -1 {
		d = s.m.Dist(s.t.Host(prev), s.t.Host(id))
	} else {
		d = s.m.Dist(q.pos, s.t.Host(id))
	}
	q.cost += d
	s.eng.After(d, func() {
		q.pos = s.t.Host(id)
		if _, ok := s.dl[id][q.o]; ok {
			s.descend(q, id)
			return
		}
		s.climbQuery(q, id, s.t.Parent(id))
	})
}

func (s *TreeSim) descend(q *treeQuery, id int) {
	e, ok := s.dl[id][q.o]
	if !ok {
		if s.cfg.Redirects {
			if to, ok := s.fwd[id][q.o]; ok {
				s.chase(q, to)
				return
			}
		}
		s.restart(q)
		return
	}
	if e.child == -1 {
		host := s.t.Host(id)
		if s.loc[q.o] == host {
			s.complete(q, host)
			return
		}
		q.waited = true
		if s.waiters[id] == nil {
			s.waiters[id] = make(map[core.ObjectID][]func(graph.NodeID))
		}
		s.waiters[id][q.o] = append(s.waiters[id][q.o], func(newProxy graph.NodeID) {
			s.chase(q, newProxy)
		})
		return
	}
	if s.tc.Shortcuts {
		// Jump straight to the current proxy.
		target := s.loc[q.o]
		d := s.m.Dist(q.pos, target)
		q.cost += d
		s.eng.After(d, func() {
			q.pos = target
			if s.loc[q.o] == target {
				s.complete(q, target)
				return
			}
			s.restart(q)
		})
		return
	}
	child := e.child
	d := s.m.Dist(q.pos, s.t.Host(child))
	q.cost += d
	s.eng.After(d, func() {
		q.pos = s.t.Host(child)
		s.descend(q, child)
	})
}

func (s *TreeSim) chase(q *treeQuery, proxy graph.NodeID) {
	d := s.m.Dist(q.pos, proxy)
	q.cost += d
	s.eng.After(d, func() {
		q.pos = proxy
		if s.loc[q.o] == proxy {
			s.complete(q, proxy)
			return
		}
		s.restart(q)
	})
}

func (s *TreeSim) restart(q *treeQuery) {
	q.restarts++
	if q.restarts > maxRestarts {
		s.fail("sim: tree query for %d exceeded %d restarts", q.o, maxRestarts)
		return
	}
	s.startQuery(q, q.pos)
}

func (s *TreeSim) complete(q *treeQuery, found graph.NodeID) {
	s.results = append(s.results, QueryResult{
		Origin: q.origin, Object: q.o, Found: found,
		Cost: q.cost, Optimal: q.optimal, Restarts: q.restarts, Waited: q.waited,
	})
	s.meter.AddQuerySample(q.cost, q.optimal)
}

// CheckInvariants validates quiescent-state trail consistency.
func (s *TreeSim) CheckInvariants() error {
	if s.eng.Pending() > 0 {
		return fmt.Errorf("sim: invariants checked before quiescence")
	}
	for _, err := range s.errs {
		return fmt.Errorf("sim: protocol error during run: %w", err)
	}
	perObject := make(map[core.ObjectID]int)
	for _, entries := range s.dl {
		for o := range entries {
			perObject[o]++
		}
	}
	for o, proxy := range s.loc {
		id := s.t.Root()
		steps := 0
		for {
			e, ok := s.dl[id][o]
			if !ok {
				return fmt.Errorf("sim: tree trail for %d broken at node %d", o, id)
			}
			steps++
			if e.child == -1 {
				break
			}
			id = e.child
		}
		if s.t.Host(id) != proxy {
			return fmt.Errorf("sim: tree trail for %d ends at %d, proxy %d", o, s.t.Host(id), proxy)
		}
		if perObject[o] != steps {
			return fmt.Errorf("sim: object %d has %d entries, trail %d", o, perObject[o], steps)
		}
	}
	return nil
}

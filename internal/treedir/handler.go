package treedir

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// The pruning tree's insert, prune and query rules are written once, here,
// as a per-node handler in the shape of core's Algorithm 1 handler;
// transport, timing and the reactions to a stop belong to its drivers
// (Directory, and sim.TreeSim on the event clock).

// Config selects the baseline's query discipline.
type Config struct {
	// SinkQueries routes every query through the tree root first (STUN's
	// sink-initiated model): the requester sends the query to the sink,
	// which resolves it by descending the pruning tree.
	SinkQueries bool
	// Shortcuts lets a query jump straight from the discovery node to the
	// proxy along the graph shortest path instead of walking the tree
	// downward (the message-pruning tree with shortcuts of Liu et al.,
	// used by the Z-DAT + shortcuts baseline).
	Shortcuts bool
}

type phase uint8 // the leg of its walk a message is on

const (
	climbing   phase = iota // up from the owner's leaf (a sink query: to the root)
	pruning                 // a move deleting the old branch downward
	descending              // a query following the pointers to the proxy
	landing                 // a query's shortcut jump to the proxy's leaf
)

// Msg is one operation in flight over the tree. Drivers move At to Next,
// adding the distance between their hosts to Cost, and keep a query's
// Truth current.
type Msg struct {
	Kind  core.MsgKind
	Obj   core.ObjectID
	Owner graph.NodeID // new proxy of a publish or move; a query's requester
	Truth graph.NodeID // a query's current proxy
	At    int          // tree node the message is at
	Next  int          // tree node it travels to
	Cost  float64

	phase phase
	below int // the tree node a climb came from; -1 at the owner's leaf
}

// Climbing reports whether m is on its upward leg.
func (m *Msg) Climbing() bool { return m.phase == climbing }

// Handler is the pruning tree's per-node rule over one entry store, which
// maps a tree node and an object to the child the object's trail
// continues at (-1 at the proxy's leaf). Drivers serialize steps and add
// their samples to Meter.
type Handler struct {
	t     *Tree
	m     *graph.Metric
	cfg   Config
	dl    entryTable
	Meter core.CostMeter
}

// NewHandler returns an empty entry store over a finalized tree.
func NewHandler(t *Tree, m *graph.Metric, cfg Config) (*Handler, error) {
	if !t.final {
		return nil, fmt.Errorf("treedir: tree not finalized")
	}
	return &Handler{t: t, m: m, cfg: cfg, dl: newEntryTable(2 * t.Len())}, nil
}

// NewMsg starts an operation of o at the owner's leaf. A sink query's
// first hop goes to the root; every other operation starts in place.
func (h *Handler) NewMsg(kind core.MsgKind, o core.ObjectID, owner graph.NodeID) (Msg, error) {
	leaf := h.t.Leaf(owner)
	if leaf < 0 {
		return Msg{}, fmt.Errorf("treedir: sensor %d has no leaf", owner)
	}
	m := Msg{Kind: kind, Obj: o, Owner: owner, Truth: graph.Undefined, At: leaf, Next: leaf, below: -1}
	if kind == core.QueryMsg && h.cfg.SinkQueries {
		m.Next = h.t.Root()
	}
	return m, nil
}

// Step applies the rule of the tree node m is at and names the next node
// or says why the operation stopped: Done (a publish stamped the root, a
// move pruned its old branch, a query reached Truth's leaf), TrailLost (no
// entry where the walk needs one, a move or query climbed past the root,
// or a shortcut missed Truth) or StaleProxy (the trail ends at a leaf
// other than Truth's).
func (h *Handler) Step(m *Msg) core.Verdict {
	if m.phase == landing {
		if h.t.Host(m.At) != m.Truth {
			return core.TrailLost
		}
		return core.Done
	}
	i, has := h.dl.lookup(m.At, m.Obj)
	e := int(h.dl.cells[i].child)
	switch {
	case m.phase == pruning:
		if !has {
			return core.TrailLost
		}
		h.dl.remove(i)
		if e < 0 {
			return core.Done // the old proxy's leaf
		}
		m.Next = e
		return core.Forward
	case m.phase == descending && !has:
		return core.TrailLost
	case m.phase == descending || m.Kind == core.QueryMsg && has:
		m.phase = descending // a query turns down at its first hit
		return h.descend(m, e)
	case m.Kind == core.QueryMsg:
		return h.climbOn(m)
	}
	h.dl.set(i, m.At, m.Obj, m.below, has) // stamp, or repoint a move's peak
	if has && m.Kind == core.MoveMsg {
		if e < 0 {
			return core.Done // the peak is the old proxy's leaf: nothing to prune
		}
		m.phase, m.Next = pruning, e
		return core.Forward
	}
	return h.climbOn(m)
}

// climbOn sends a climb to the parent; past the root a publish is done
// and a move or query has missed the trail.
func (h *Handler) climbOn(m *Msg) core.Verdict {
	m.below, m.Next = m.At, h.t.Parent(m.At)
	switch {
	case m.Next >= 0:
		return core.Forward
	case m.Kind == core.PublishMsg:
		return core.Done
	}
	return core.TrailLost
}

// descend applies a query's rule at the entry e it found at m.At: follow
// the pointer down (with Shortcuts, jump to Truth's leaf instead), or at
// the trail's leaf stop.
func (h *Handler) descend(m *Msg, e int) core.Verdict {
	switch {
	case e >= 0 && h.cfg.Shortcuts:
		m.phase, m.Next = landing, h.t.Leaf(m.Truth)
	case e >= 0:
		m.Next = e
	case h.t.Host(m.At) != m.Truth:
		return core.StaleProxy
	default:
		return core.Done
	}
	return core.Forward
}

// Walk drives m to its stop in place, for drivers that apply a whole
// operation at once: every hop, the first included, adds the distance
// between the hosts to m.Cost. A hop in place adds nothing, so it is
// skipped.
func (h *Handler) Walk(m *Msg) core.Verdict {
	for {
		if m.Next != m.At {
			m.Cost += h.m.Dist(h.t.Host(m.At), h.t.Host(m.Next))
			m.At = m.Next
		}
		if v := h.Step(m); v != core.Forward {
			return v
		}
	}
}

// LoadByNode returns the number of entries stored at each sensor of the
// metric's graph (tree nodes count at their hosts).
func (h *Handler) LoadByNode() []int {
	counts := make([]int, h.m.Graph().N())
	for _, c := range h.dl.cells {
		if c.node != 0 {
			counts[h.t.Host(int(c.node)-1)]++
		}
	}
	return counts
}

// CheckInvariants verifies, at quiescence, that every object of loc has
// one clean pointer trail from the root to its proxy's leaf and no entry
// off it.
func (h *Handler) CheckInvariants(loc map[core.ObjectID]graph.NodeID) error {
	perObject := make(map[core.ObjectID]int)
	for _, c := range h.dl.cells {
		if c.node != 0 {
			perObject[c.obj]++
		}
	}
	for o, proxy := range loc {
		id, steps := h.t.Root(), 0
		for {
			child, has := h.dl.get(id, o)
			if !has {
				return fmt.Errorf("treedir: trail for %d broken at node %d", o, id)
			}
			steps++
			if child < 0 {
				break
			}
			id = child
		}
		if leaf := h.t.Leaf(proxy); id != leaf {
			return fmt.Errorf("treedir: trail for %d ends at node %d, proxy %d has leaf %d", o, id, proxy, leaf)
		}
		if perObject[o] != steps {
			return fmt.Errorf("treedir: object %d has %d entries, trail has %d", o, perObject[o], steps)
		}
	}
	return nil
}

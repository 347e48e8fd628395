// Package treedir implements a generic message-pruning tree directory — the
// tracking structure shared by the traffic-conscious baselines STUN (Kung &
// Vlah 2003) and Z-DAT (Lin et al. 2006) the paper compares against (§1.3,
// §8). Tree nodes keep per-object detection entries with downward pointers;
// maintenance climbs from the new proxy's leaf to the lowest ancestor that
// knows the object and prunes the old branch; queries climb from the
// requester (or start at the sink, STUN-style) and descend the pointers.
//
// Tree nodes may be physical sensors (spanning trees, Z-DAT) or logical
// nodes mapped onto representative sensors (STUN's Drain-And-Balance
// hierarchy); message costs are always shortest-path distances between the
// hosting sensors, the same cost model the MOT directory uses.
package treedir

import (
	"fmt"

	"repro/internal/graph"
)

// Tree is a rooted tree whose nodes are hosted at physical sensors.
type Tree struct {
	parent []int
	host   []graph.NodeID
	leafOf []int // sensor -> its leaf tree node, -1 for none
	root   int
	final  bool
}

// NewTree returns an empty tree builder.
func NewTree() *Tree {
	return &Tree{root: -1}
}

// AddLeaf adds a leaf tree node for the given sensor and returns its tree
// node ID. Each sensor may have at most one leaf.
func (t *Tree) AddLeaf(sensor graph.NodeID) (int, error) {
	if t.final {
		return -1, fmt.Errorf("treedir: tree finalized")
	}
	if sensor < 0 {
		return -1, fmt.Errorf("treedir: negative sensor %d", sensor)
	}
	if t.Leaf(sensor) >= 0 {
		return -1, fmt.Errorf("treedir: sensor %d already has a leaf", sensor)
	}
	for int(sensor) >= len(t.leafOf) {
		t.leafOf = append(t.leafOf, -1)
	}
	id := t.addNode(sensor)
	t.leafOf[sensor] = id
	return id, nil
}

// AddInternal adds an internal tree node hosted at the given sensor and
// returns its tree node ID.
func (t *Tree) AddInternal(host graph.NodeID) (int, error) {
	if t.final {
		return -1, fmt.Errorf("treedir: tree finalized")
	}
	return t.addNode(host), nil
}

func (t *Tree) addNode(host graph.NodeID) int {
	id := len(t.parent)
	t.parent = append(t.parent, -1)
	t.host = append(t.host, host)
	return id
}

// SetParent links child under parent.
func (t *Tree) SetParent(child, parent int) error {
	if t.final {
		return fmt.Errorf("treedir: tree finalized")
	}
	if child < 0 || child >= len(t.parent) || parent < 0 || parent >= len(t.parent) {
		return fmt.Errorf("treedir: SetParent(%d,%d) out of range", child, parent)
	}
	if child == parent {
		return fmt.Errorf("treedir: node %d cannot parent itself", child)
	}
	if t.parent[child] != -1 {
		return fmt.Errorf("treedir: node %d already has a parent", child)
	}
	t.parent[child] = parent
	return nil
}

// Finalize validates the structure: exactly one root and no cycles, so
// every node reaches the root.
func (t *Tree) Finalize() error {
	if t.final {
		return nil
	}
	if len(t.parent) == 0 {
		return fmt.Errorf("treedir: empty tree")
	}
	roots := 0
	for id, p := range t.parent {
		if p == -1 {
			roots++
			t.root = id
		}
	}
	if roots != 1 {
		return fmt.Errorf("treedir: %d roots, want 1", roots)
	}
	// Every other node has a parent, so it reaches the root unless its
	// parent chain runs into a cycle. One walk per node up to a node
	// already known to reach the root; a node met twice on one walk closes
	// a cycle.
	const (
		unknown uint8 = iota
		onWalk
		reachesRoot
	)
	state := make([]uint8, len(t.parent))
	state[t.root] = reachesRoot
	for u := range t.parent {
		v := u
		for state[v] == unknown {
			state[v] = onWalk
			v = t.parent[v]
		}
		if state[v] == onWalk {
			return fmt.Errorf("treedir: cycle through node %d", v)
		}
		for v = u; state[v] == onWalk; v = t.parent[v] {
			state[v] = reachesRoot
		}
	}
	t.final = true
	return nil
}

// Root returns the root tree node ID.
func (t *Tree) Root() int { return t.root }

// Len returns the number of tree nodes.
func (t *Tree) Len() int { return len(t.parent) }

// Parent returns the parent tree node of id (-1 for the root).
func (t *Tree) Parent(id int) int { return t.parent[id] }

// Host returns the physical sensor hosting tree node id.
func (t *Tree) Host(id int) graph.NodeID { return t.host[id] }

// Leaf returns the leaf tree node of a sensor, or -1.
func (t *Tree) Leaf(sensor graph.NodeID) int {
	if sensor < 0 || int(sensor) >= len(t.leafOf) {
		return -1
	}
	return t.leafOf[sensor]
}

// Depth returns the number of edges from id to the root.
func (t *Tree) Depth(id int) int {
	d := 0
	for t.parent[id] != -1 {
		id = t.parent[id]
		d++
	}
	return d
}

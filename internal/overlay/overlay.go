// Package overlay defines the types shared between the hierarchical overlay
// constructions (constant-doubling HS in internal/hier, the general-network
// sparse-partition hierarchy in internal/partition) and the MOT directory
// core that runs on top of them.
//
// An overlay presents, for every bottom-level sensor node u, its detection
// path DPath(u): for each level 0..h an ordered list of stations (directory
// slots hosted at physical sensor nodes) that publish, maintenance, and
// query operations visit in order (§2.2, Definition 1). Station order within
// a level is the paper's ID order, which rules out the race conditions of
// Fig. 3 in concurrent executions (§3.1).
package overlay

import (
	"fmt"

	"repro/internal/graph"
)

// Station is one directory slot in the overlay: a (level, key) pair hosted
// at a physical sensor node. For the constant-doubling HS the key is the
// leader's node ID; for the general-network partition the key is a cluster
// ID (several clusters per level may share a physical host). Either way
// Key lies in [0, n) for the overlay's graph of n nodes, and the MOT slot
// store indexes its per-level rows by it.
type Station struct {
	Level int
	Key   int64
	Host  graph.NodeID
}

// String renders the station for diagnostics.
func (s Station) String() string {
	return fmt.Sprintf("L%d/k%d@%d", s.Level, s.Key, s.Host)
}

// Path is a detection path: Path[l] lists the stations visited at level l,
// in visit (ID) order. Path[0] is always the single bottom-level station of
// the issuing sensor node, and Path[h] contains the root station.
type Path [][]Station

// Overlay is the hierarchical tracking structure the MOT directory runs on.
// Implementations must be safe for concurrent use after construction.
type Overlay interface {
	// Height returns h, the top level index; levels run 0..h.
	Height() int
	// Root returns the root station (the single station at level h).
	Root() Station
	// DPath returns the detection path of bottom-level node u. The result
	// is shared and must not be modified by callers.
	DPath(u graph.NodeID) Path
	// HomeStation returns the default-parent station of u at the given
	// level (home^level(u), §2.2) — the station detection trails are
	// anchored at. It is always a member of DPath(u)[level].
	HomeStation(u graph.NodeID, level int) Station
	// SpecialOffset returns the level offset sigma used to pick special
	// parents (Definition 3; sigma = 3*rho+6 in the theory).
	SpecialOffset() int
	// Metric returns the distance oracle of the underlying network, used
	// for message-cost accounting (exact *graph.Metric at small n, the
	// sub-quadratic sketch oracle in scale sweeps).
	Metric() graph.DistanceOracle
}

// SpecialParent returns the special parent of the station at (level, idx)
// on path p: the station offset levels higher on the same detection path,
// with index wrapped modulo the higher level's station count (§3,
// Definition 3 and the parent-set extension below it). ok is false when the
// special parent is undefined (too close to the root), which the paper
// allows.
func SpecialParent(p Path, level, idx, offset int) (Station, bool) {
	k := level + offset
	if k <= level || k >= len(p) || len(p[k]) == 0 {
		return Station{}, false
	}
	ss := p[k]
	return ss[idx%len(ss)], true
}

// Flatten returns all stations of p in visit order: level by level,
// ascending, and within each level in the stored (ID) order.
func Flatten(p Path) []Station {
	var out []Station
	for _, lvl := range p {
		out = append(out, lvl...)
	}
	return out
}

// Length returns the total travel distance of visiting all stations of p in
// order, measured by shortest-path distances between consecutive hosts —
// the length of the detection path (Definition 1, Lemma 2.2).
func Length(p Path, m graph.DistanceOracle) float64 {
	st := Flatten(p)
	total := 0.0
	for i := 1; i < len(st); i++ {
		total += m.Dist(st[i-1].Host, st[i].Host)
	}
	return total
}

// LengthUpTo returns the travel distance of visiting stations of p in order
// up to and including level j.
func LengthUpTo(p Path, m graph.DistanceOracle, j int) float64 {
	total := 0.0
	var prev *Station
	for l := 0; l <= j && l < len(p); l++ {
		for i := range p[l] {
			s := p[l][i]
			if prev != nil {
				total += m.Dist(prev.Host, s.Host)
			}
			prev = &p[l][i]
		}
	}
	return total
}

// MeetLevel returns the lowest level at which the two paths share a
// station, or -1 if they share none below or at maxLevel. Lemma 2.1
// guarantees a meeting at level ceil(log dist(u,v)) + 1 on constant-doubling
// overlays built with parent sets.
func MeetLevel(a, b Path) int {
	h := len(a)
	if len(b) < h {
		h = len(b)
	}
	for l := 0; l < h; l++ {
		set := make(map[int64]bool, len(a[l]))
		for _, s := range a[l] {
			set[s.Key] = true
		}
		for _, s := range b[l] {
			if set[s.Key] {
				return l
			}
		}
	}
	return -1
}

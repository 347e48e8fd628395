package hier

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/overlay"
)

// Incremental hierarchy repair.
//
// With Config.Incremental, every level is the greedy MIS under the pure
// priority order (prio(l, u), u): u ∈ V_(l+1) iff u is live, u ∈ V_l, and
// no neighbor v within 2^(l+1) with (prio(l+1, v), v) < (prio(l+1, u), u)
// is in V_(l+1). That characterization has a unique fixpoint, so the
// hierarchy is a pure function of the live set — failing or readmitting a
// node perturbs it only where the fixpoint actually changes, and Repair
// can chase exactly those changes instead of rebuilding. Selection flips
// propagate only toward higher (priority, ID) pairs, so a min-heap
// worklist popped in ascending order settles every node in one visit.
//
// Concurrency: Repair, Exclude, and Readmit mutate the hierarchy and the
// detection-path cache. Callers must quiesce readers (no concurrent DPath
// / Home / parent lookups) for the duration of a repair; the facade
// tracker serializes them under its churn lock.

// RepairStats summarizes the work one Repair call performed; the churn
// harness uses it to show repair locality (touched ≪ n).
type RepairStats struct {
	Affected          int  // seed nodes handed to Repair
	LevelsTouched     int  // levels whose membership changed
	MembershipChanged int  // (level, node) membership flips
	ParentsRecomputed int  // (level, node) parent reassignments
	ParentsDropped    int  // (level, node) parent entries deleted
	LevelsAdded       int  // levels appended by re-extension
	LevelsRemoved     int  // levels dropped by trimming
	RootChanged       bool // the root moved
}

// Touched is the total number of (level, node) pairs Repair rewrote.
func (st RepairStats) Touched() int {
	return st.MembershipChanged + st.ParentsRecomputed + st.ParentsDropped
}

func (hs *Hierarchy) isExcluded(u graph.NodeID) bool {
	return hs.excluded != nil && hs.excluded[u]
}

// liveAt reports u ∈ V_l counting only live nodes (levelSet[0] tracks the
// live set; higher levels never contain excluded nodes).
func (hs *Hierarchy) liveAt(u graph.NodeID, l int) bool {
	return hs.levelSet[l][u]
}

// liveNodes returns V_l minus the excluded nodes (only level 0 can hold
// them; higher levels come back as the shared slice).
func (hs *Hierarchy) liveNodes(l int) []graph.NodeID {
	if l > 0 || hs.excluded == nil {
		return hs.levels[l]
	}
	live := make([]graph.NodeID, 0, hs.liveN)
	for _, u := range hs.levels[0] {
		if !hs.excluded[u] {
			live = append(live, u)
		}
	}
	return live
}

// liveCount returns |V_l| counting only live nodes.
func (hs *Hierarchy) liveCount(l int) int {
	if l == 0 && hs.excluded != nil {
		return hs.liveN
	}
	return len(hs.levels[l])
}

// prio is the deterministic MIS priority of node u at level `level`: a
// SplitMix64 chain over (seed, level, node). The mixer is a bijection on
// 64-bit words, so structured inputs cannot collide after mixing; ID
// tie-breaking makes the order total regardless.
func (hs *Hierarchy) prio(level int, u graph.NodeID) uint64 {
	h := splitmix64(uint64(hs.cfg.Seed))
	h = splitmix64(h ^ uint64(int64(level)))
	h = splitmix64(h ^ uint64(int64(u)))
	return h
}

// splitmix64 advances a SplitMix64 state and returns the mixed output
// (Steele et al., "Fast Splittable Pseudorandom Number Generators").
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildIncremental constructs the levels, bitmaps, and parents of an
// incremental hierarchy from scratch (BuildExcluding's back end).
func (hs *Hierarchy) buildIncremental() error {
	n := hs.g.N()
	live := make([]bool, n)
	hs.liveN = 0
	for i := range live {
		live[i] = !hs.excluded[i]
		if live[i] {
			hs.liveN++
		}
	}
	if hs.liveN == 0 {
		return fmt.Errorf("hier: all nodes excluded")
	}
	hs.levelSet = append(hs.levelSet, live)
	if err := hs.extendLevels(nil); err != nil {
		return err
	}
	hs.h = len(hs.levels) - 1
	hs.root = hs.topRoot()
	for l := 1; l <= hs.h; l++ {
		for _, u := range hs.levels[l] {
			hs.inLevel[u] = l
		}
	}

	// levelSet[0] is the live set, so excluded nodes get no parents.
	return hs.assignLevelParents(hs.levelSet)
}

// extendLevels grows the level sequence by greedy MIS until the top level
// is a single live node, recording new-level memberships into changedAt
// when non-nil (Repair's re-extension path; nil during initial build).
func (hs *Hierarchy) extendLevels(changedAt map[int][]graph.NodeID) error {
	member := make([]bool, hs.g.N()) // scratch for levelAdjacency
	for hs.liveCount(len(hs.levels)-1) > 1 {
		l := len(hs.levels) - 1
		cur := hs.liveNodes(l)
		radius := math.Pow(2, float64(l+1))
		adj := levelAdjacency(hs.m, cur, radius, member)
		lvl := l + 1
		next := mis.Greedy(cur, adj, func(u graph.NodeID) uint64 { return hs.prio(lvl, u) })
		if len(next) == 0 {
			return fmt.Errorf("hier: MIS at level %d returned empty set", l)
		}
		if len(next) >= len(cur) && len(cur) > 1 {
			// Same non-termination guard as the Luby path: an edgeless
			// level graph is fine while nodes are far apart, but not past
			// the network diameter.
			if radius > hs.m.Diameter()*2+2 {
				return fmt.Errorf("hier: level %d did not shrink past diameter", l)
			}
		}
		hs.levels = append(hs.levels, next)
		set := make([]bool, hs.g.N())
		for _, u := range next {
			set[u] = true
		}
		hs.levelSet = append(hs.levelSet, set)
		if changedAt != nil {
			changedAt[lvl] = append(changedAt[lvl], next...)
		}
	}
	return nil
}

// topRoot returns the first live node of the top level.
func (hs *Hierarchy) topRoot() graph.NodeID {
	for _, u := range hs.levels[hs.h] {
		if !hs.isExcluded(u) {
			return u
		}
	}
	return hs.levels[hs.h][0]
}

// LiveCount returns the number of non-excluded nodes.
func (hs *Hierarchy) LiveCount() int {
	if hs.excluded == nil {
		return hs.g.N()
	}
	return hs.liveN
}

// IsExcluded reports whether u is currently excluded (failed).
func (hs *Hierarchy) IsExcluded(u graph.NodeID) bool {
	if int(u) < 0 || int(u) >= hs.g.N() {
		return false
	}
	return hs.isExcluded(u)
}

// Exclude marks node u failed: it stays in the V_0 station space but
// becomes ineligible for every MIS level. A no-op if already excluded.
// Call Repair([]graph.NodeID{u}) afterwards to restore the invariants;
// Exclude alone leaves the hierarchy stale.
func (hs *Hierarchy) Exclude(u graph.NodeID) error {
	if !hs.cfg.Incremental {
		return fmt.Errorf("hier: Exclude requires Config.Incremental")
	}
	if int(u) < 0 || int(u) >= hs.g.N() {
		return fmt.Errorf("hier: node %d out of range", u)
	}
	if hs.excluded[u] {
		return nil
	}
	if hs.liveN <= 1 {
		return fmt.Errorf("hier: cannot exclude the last live node")
	}
	hs.excluded[u] = true
	hs.levelSet[0][u] = false
	hs.liveN--
	return nil
}

// Readmit marks a previously excluded node live again. A no-op if already
// live. Call Repair([]graph.NodeID{u}) afterwards to restore the
// invariants.
func (hs *Hierarchy) Readmit(u graph.NodeID) error {
	if !hs.cfg.Incremental {
		return fmt.Errorf("hier: Readmit requires Config.Incremental")
	}
	if int(u) < 0 || int(u) >= hs.g.N() {
		return fmt.Errorf("hier: node %d out of range", u)
	}
	if !hs.excluded[u] {
		return nil
	}
	hs.excluded[u] = false
	hs.levelSet[0][u] = true
	hs.liveN++
	return nil
}

// Repair restores every hierarchy invariant after the liveness of the
// affected nodes changed (Exclude/Readmit), touching only the region the
// greedy-MIS fixpoint actually moved in: per level, a priority-ordered
// worklist re-evaluates selection starting from the eligibility changes,
// then parents are recomputed only for nodes whose candidate parent ball
// changed. The result is identical to BuildExcluding over the current
// live set (Fingerprint-equal), at cost proportional to the perturbed
// neighborhood instead of n.
func (hs *Hierarchy) Repair(affected []graph.NodeID) (RepairStats, error) {
	var st RepairStats
	if !hs.cfg.Incremental {
		return st, fmt.Errorf("hier: Repair requires Config.Incremental")
	}
	if hs.liveN == 0 {
		return st, fmt.Errorf("hier: no live nodes")
	}
	n := hs.g.N()
	seen := make(map[graph.NodeID]bool, len(affected))
	var seeds []graph.NodeID
	for _, u := range affected {
		if int(u) < 0 || int(u) >= n {
			return st, fmt.Errorf("hier: affected node %d out of range", u)
		}
		if !seen[u] {
			seen[u] = true
			seeds = append(seeds, u)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	st.Affected = len(seeds)
	oldRoot := hs.root
	oldH := hs.h

	// Bottom-up membership fixpoint: the frontier entering level l's pass
	// is the set of nodes whose eligibility for V_(l+1) changed. An empty
	// frontier means every higher level is untouched.
	changedAt := map[int][]graph.NodeID{0: seeds}
	frontier := seeds
	for l := 0; l+1 < len(hs.levels) && len(frontier) > 0; l++ {
		frontier = hs.repairLevel(l, frontier)
		if len(frontier) > 0 {
			changedAt[l+1] = frontier
			st.LevelsTouched++
			st.MembershipChanged += len(frontier)
		}
	}

	// Top structure: re-extend while the top level still has 2+ live
	// nodes, then trim redundant singleton levels, so the height matches
	// what a fresh build would stop at.
	grown := len(hs.levels)
	if err := hs.extendLevels(changedAt); err != nil {
		return st, err
	}
	st.LevelsAdded = len(hs.levels) - grown
	st.MembershipChanged += countChangedFrom(changedAt, grown, len(hs.levels))
	st.LevelsTouched += st.LevelsAdded
	top := len(hs.levels) - 1
	t := top
	for l := 0; l <= top; l++ {
		if hs.liveCount(l) == 1 {
			t = l
			break
		}
	}
	for l := top; l > t; l-- {
		changedAt[l] = append(changedAt[l], hs.levels[l]...)
		st.MembershipChanged += len(hs.levels[l])
		st.LevelsTouched++
		st.LevelsRemoved++
		for _, u := range hs.levels[l] {
			hs.levelSet[l][u] = false
		}
		hs.levels = hs.levels[:l]
		hs.levelSet = hs.levelSet[:l]
	}
	hs.h = len(hs.levels) - 1
	hs.root = hs.topRoot()
	st.RootChanged = hs.root != oldRoot

	// Resize the parent arrays to the new height.
	for len(hs.defaultParent) > hs.h {
		hs.defaultParent = hs.defaultParent[:len(hs.defaultParent)-1]
		hs.parentSet = hs.parentSet[:len(hs.parentSet)-1]
	}
	for len(hs.defaultParent) < hs.h {
		hs.defaultParent = append(hs.defaultParent, make(map[graph.NodeID]graph.NodeID))
		hs.parentSet = append(hs.parentSet, make(map[graph.NodeID][]graph.NodeID))
	}

	// Parents: a node's assignment at level l changes only if it entered
	// or left V_l, or some V_(l+1) membership changed within its 4*2^(l+1)
	// candidate ball (Near is symmetric and exact, so scanning around the
	// changed upper node finds exactly those). Levels at or above the old
	// height never had assignments and are filled wholesale.
	for l := 0; l < hs.h; l++ {
		psRadius := 4 * math.Pow(2, float64(l+1))
		needSet := make(map[graph.NodeID]bool)
		if l >= oldH {
			for _, u := range hs.levels[l] {
				if !hs.isExcluded(u) {
					needSet[u] = true
				}
			}
		} else {
			for _, u := range changedAt[l] {
				needSet[u] = true
			}
			for _, w := range changedAt[l+1] {
				for _, nb := range hs.m.Near(w, psRadius) {
					if hs.liveAt(nb.Node, l) {
						needSet[nb.Node] = true
					}
				}
			}
		}
		need := make([]graph.NodeID, 0, len(needSet))
		for u := range needSet {
			need = append(need, u)
		}
		sort.Slice(need, func(i, j int) bool { return need[i] < need[j] })
		for _, u := range need {
			if !hs.liveAt(u, l) {
				if _, had := hs.defaultParent[l][u]; had {
					st.ParentsDropped++
				}
				delete(hs.defaultParent[l], u)
				delete(hs.parentSet[l], u)
				continue
			}
			if err := hs.assignParentsInto(u, l, hs.levelSet[l+1], hs.defaultParent[l], hs.parentSet[l]); err != nil {
				return st, err
			}
			st.ParentsRecomputed++
		}
	}

	// inLevel for every node whose membership (at any level) changed.
	touched := make(map[graph.NodeID]bool)
	for l := 0; l < len(hs.levels)+st.LevelsRemoved; l++ {
		for _, u := range changedAt[l] {
			touched[u] = true
		}
	}
	relevel := make([]graph.NodeID, 0, len(touched))
	for u := range touched {
		relevel = append(relevel, u)
	}
	sort.Slice(relevel, func(i, j int) bool { return relevel[i] < relevel[j] })
	for _, u := range relevel {
		hs.inLevel[u] = 0
		for l := hs.h; l >= 1; l-- {
			if hs.levelSet[l][u] {
				hs.inLevel[u] = l
				break
			}
		}
	}

	// Detection paths are a cache over the (now mutated) parent tables;
	// dropping it wholesale re-lands on exactly the fresh-build state.
	hs.clearPaths()
	return st, nil
}

// clearPaths drops the detection-path cache after a structural mutation.
func (hs *Hierarchy) clearPaths() {
	hs.pathsMu.Lock()
	hs.paths = make(map[graph.NodeID]overlay.Path)
	hs.pathsMu.Unlock()
}

// repairLevel re-evaluates V_(l+1) membership from the pending dirty set:
// a min-heap worklist popped in ascending (priority, ID) order. When a
// node pops, every lower-ordered node has already settled (flips only
// push higher-ordered neighbors), so one visit per node computes its
// final selection. Returns the sorted nodes whose membership flipped and
// folds them into levels[l+1]/levelSet[l+1].
func (hs *Hierarchy) repairLevel(l int, dirty []graph.NodeID) []graph.NodeID {
	radius := math.Pow(2, float64(l+1))
	up := hs.levelSet[l+1]
	lvl := l + 1
	var pq prioHeap
	pushed := make(map[graph.NodeID]bool)
	push := func(u graph.NodeID) {
		if !pushed[u] {
			pushed[u] = true
			heap.Push(&pq, prioItem{p: hs.prio(lvl, u), u: u})
		}
	}
	for _, u := range dirty {
		push(u)
	}
	var changed []graph.NodeID
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(prioItem)
		u := it.u
		sel := hs.liveAt(u, l)
		if sel {
			for _, nb := range hs.m.Near(u, radius) {
				v := nb.Node
				if v == u || nb.D >= radius || !hs.liveAt(v, l) || !up[v] {
					continue
				}
				pv := hs.prio(lvl, v)
				if pv < it.p || (pv == it.p && v < u) {
					sel = false
					break
				}
			}
		}
		if sel == up[u] {
			continue
		}
		up[u] = sel
		changed = append(changed, u)
		for _, nb := range hs.m.Near(u, radius) {
			v := nb.Node
			if v == u || nb.D >= radius || !hs.liveAt(v, l) {
				continue
			}
			pv := hs.prio(lvl, v)
			if pv > it.p || (pv == it.p && v > u) {
				push(v)
			}
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	if len(changed) > 0 {
		hs.levels[lvl] = rebuildLevelSlice(hs.levels[lvl], changed, up)
	}
	return changed
}

// rebuildLevelSlice merges the membership flips into the sorted level
// slice: the union of old and changed, filtered by the updated bitmap.
func rebuildLevelSlice(old, changed []graph.NodeID, set []bool) []graph.NodeID {
	merged := make([]graph.NodeID, 0, len(old)+len(changed))
	merged = append(merged, old...)
	merged = append(merged, changed...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	out := merged[:0]
	var prev graph.NodeID = -1
	for _, u := range merged {
		if u == prev || !set[u] {
			prev = u
			continue
		}
		prev = u
		out = append(out, u)
	}
	return out
}

// countChangedFrom sums the recorded membership changes at levels in
// [from, to).
func countChangedFrom(changedAt map[int][]graph.NodeID, from, to int) int {
	total := 0
	for l := from; l < to; l++ {
		total += len(changedAt[l])
	}
	return total
}

// Fingerprint hashes the complete tracking-relevant structure — levels,
// live/excluded sets, parents, root, height, sigma, inLevel — so tests
// can assert that Repair landed on exactly the hierarchy a fresh
// BuildExcluding would produce.
func (hs *Hierarchy) Fingerprint() uint64 {
	fp := fnv.New64a()
	buf := make([]byte, 8)
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		fp.Write(buf)
	}
	w(int64(hs.h))
	w(int64(hs.root))
	w(int64(hs.sigma))
	w(int64(hs.LiveCount()))
	for l, lvl := range hs.levels {
		w(-1)
		w(int64(l))
		for _, u := range lvl {
			w(int64(u))
		}
	}
	for l := 0; l < hs.h; l++ {
		for _, u := range hs.levels[l] {
			if hs.isExcluded(u) {
				continue
			}
			w(-2)
			w(int64(u))
			w(int64(hs.defaultParent[l][u]))
			for _, p := range hs.parentSet[l][u] {
				w(int64(p))
			}
		}
	}
	for u := range hs.inLevel {
		w(int64(hs.inLevel[u]))
	}
	if hs.excluded != nil {
		for u, ex := range hs.excluded {
			if ex {
				w(-3)
				w(int64(u))
			}
		}
	}
	return fp.Sum64()
}

// prioItem / prioHeap: the ascending (priority, ID) worklist.
type prioItem struct {
	p uint64
	u graph.NodeID
}

type prioHeap []prioItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].p != h[j].p {
		return h[i].p < h[j].p
	}
	return h[i].u < h[j].u
}
func (h prioHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x interface{}) { *h = append(*h, x.(prioItem)) }
func (h *prioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

package treedir

import "repro/internal/core"

// entryTable is a handler's entry store: a map from (tree node, object)
// to the child the object's trail continues at (-1 at the proxy's leaf).
// It is one open-addressed array of cells, a power of two long and at
// most half full, probed linearly. A delete shifts the rest of its probe
// run back over the hole (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so
// the table keeps no tombstones and every probe stops at an empty cell.
type entryTable struct {
	cells []entryCell
	n     int  // occupied cells
	shift uint // 64 − log2(len(cells)): home keeps a hash's top bits
}

// entryCell holds one entry; node is the tree node + 1, so the zero cell
// is empty.
type entryCell struct {
	obj   core.ObjectID
	node  int32
	child int32
}

// newEntryTable returns an empty table of at least size cells.
func newEntryTable(size int) entryTable {
	t := entryTable{shift: 61} // 8 cells
	for 1<<(64-t.shift) < size {
		t.shift--
	}
	t.cells = make([]entryCell, 1<<(64-t.shift))
	return t
}

// home returns the cell a key's probe starts at (Fibonacci hashing).
func (t *entryTable) home(node int, o core.ObjectID) int {
	return int((uint64(node)<<32 ^ uint64(o)) * 0x9e3779b97f4a7c15 >> t.shift)
}

// lookup returns the cell holding (node, o) and true, or the empty cell
// where it would go and false.
func (t *entryTable) lookup(node int, o core.ObjectID) (int, bool) {
	mask := len(t.cells) - 1
	for i := t.home(node, o); ; i = (i + 1) & mask {
		c := &t.cells[i]
		switch {
		case c.node == 0:
			return i, false
		case int(c.node) == node+1 && c.obj == o:
			return i, true
		}
	}
}

// get returns the child of (node, o), if the table holds it.
func (t *entryTable) get(node int, o core.ObjectID) (int, bool) {
	i, ok := t.lookup(node, o)
	return int(t.cells[i].child), ok
}

// set writes child for (node, o) at cell i, which lookup returned for
// that key: in place when found, else into the empty cell, doubling the
// table once it is more than half full. i is stale afterwards.
func (t *entryTable) set(i, node int, o core.ObjectID, child int, found bool) {
	if found {
		t.cells[i].child = int32(child)
		return
	}
	t.cells[i] = entryCell{obj: o, node: int32(node + 1), child: int32(child)}
	if t.n++; 2*t.n > len(t.cells) {
		t.grow()
	}
}

// remove empties occupied cell i and closes the hole: each later cell of
// the probe run whose home does not lie cyclically in (hole, cell] moves
// back into the hole, which then moves to that cell.
func (t *entryTable) remove(i int) {
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; t.cells[j].node != 0; j = (j + 1) & mask {
		k := t.home(int(t.cells[j].node)-1, t.cells[j].obj)
		if i <= j && i < k && k <= j || i > j && (i < k || k <= j) {
			continue // j's home lies after the hole: it stays
		}
		t.cells[i] = t.cells[j]
		i = j
	}
	t.cells[i] = entryCell{}
	t.n--
}

// grow doubles the table and reinserts every entry.
func (t *entryTable) grow() {
	old := t.cells
	t.shift--
	t.cells = make([]entryCell, 2*len(old))
	mask := len(t.cells) - 1
	for _, c := range old {
		if c.node == 0 {
			continue
		}
		i := t.home(int(c.node)-1, c.obj)
		for t.cells[i].node != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = c
	}
}

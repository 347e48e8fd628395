package treedir

import (
	"testing"

	"repro/internal/core"
)

// FuzzEntryTable applies a sequence of sets, deletes and gets over 8 tree
// nodes and 8 objects to a table that starts at 8 cells, checks each op
// against a map, and at the end compares a full scan of the cells with
// the map. The seed corpus grows the table and deletes inside probe runs
// that wrap past the array's end.
func FuzzEntryTable(f *testing.F) {
	for _, seed := range entryTableSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkEntryTable)
}

// Each op takes three bytes: the first's low two bits pick set (0),
// delete (1) or get (2, 3) and its next three the tree node; the second's
// low three bits pick the object; the third, less one, is the child.
const (
	opSet = iota
	opDelete
	opGet
)

func entryOp(op, node int, o core.ObjectID, child int) []byte {
	return []byte{byte(op | node<<2), byte(o), byte(child + 1)}
}

func checkEntryTable(t *testing.T, ops []byte) {
	tab := newEntryTable(0)
	model := map[[2]int]int{}
	for ; len(ops) >= 3; ops = ops[3:] {
		op, node, o, child := int(ops[0]&3), int(ops[0]>>2&7), core.ObjectID(ops[1]&7), int(ops[2])-1
		k := [2]int{node, int(o)}
		i, found := tab.lookup(node, o)
		want, has := model[k]
		if found != has || found && int(tab.cells[i].child) != want {
			t.Fatalf("lookup(%d, %d) = child %d, found %t; the map holds %d, %t", node, o, tab.cells[i].child, found, want, has)
		}
		switch {
		case op == opSet:
			tab.set(i, node, o, child, found)
			model[k] = child
		case op == opDelete && found:
			tab.remove(i)
			delete(model, k)
		}
		if tab.n != len(model) || 2*tab.n > len(tab.cells) {
			t.Fatalf("%d entries in %d cells; the map holds %d", tab.n, len(tab.cells), len(model))
		}
	}
	scan := map[[2]int]int{}
	for _, c := range tab.cells {
		if c.node == 0 {
			continue
		}
		k := [2]int{int(c.node) - 1, int(c.obj)}
		if _, dup := scan[k]; dup {
			t.Fatalf("key %v held twice", k)
		}
		scan[k] = int(c.child)
	}
	if len(scan) != len(model) {
		t.Fatalf("scan found %d entries; the map holds %d", len(scan), len(model))
	}
	for k, want := range model {
		if got, ok := scan[k]; !ok || got != want {
			t.Fatalf("scan holds %v -> %d, %t; the map holds %d", k, got, ok, want)
		}
		if got, ok := tab.get(k[0], core.ObjectID(k[1])); !ok || got != want {
			t.Fatalf("get(%v) = %d, %t; the map holds %d", k, got, ok, want)
		}
	}
}

// entryTableSeeds builds op sequences from keys chosen by their home cell
// in an 8-cell table, so that their runs wrap past its end whatever the
// hash: a run from cell 6 through cell 1 loses its head, then a run of
// homes 6 and 7 wrapping onto a key at home in cell 0 loses its head
// (the key at 0 must stay put), and the last seed sets every key, which
// grows the table to 128 cells, and deletes every other one.
func entryTableSeeds() [][]byte {
	small := newEntryTable(0)
	byHome := make([][][2]int, len(small.cells))
	for node := 0; node < 8; node++ {
		for o := 0; o < 8; o++ {
			h := small.home(node, core.ObjectID(o))
			byHome[h] = append(byHome[h], [2]int{node, o})
		}
	}
	ops := func(op int, keys ...[2]int) []byte {
		var b []byte
		for i, k := range keys {
			b = append(b, entryOp(op, k[0], core.ObjectID(k[1]), i)...)
		}
		return b
	}
	at := func(h, i int) [2]int { return byHome[h][i%len(byHome[h])] }

	var seeds [][]byte
	run := []([2]int){at(6, 0), at(6, 1), at(6, 2), at(0, 0)}
	seeds = append(seeds, append(ops(opSet, run...), ops(opDelete, run[0], run[1])...))
	run = []([2]int){at(6, 0), at(7, 0), at(0, 0)}
	seeds = append(seeds, append(append(ops(opSet, run...), ops(opDelete, run[0])...), ops(opGet, run...)...))
	var all [][2]int
	for _, keys := range byHome {
		all = append(all, keys...)
	}
	seed := ops(opSet, all...)
	for i := 0; i < len(all); i += 2 {
		seed = append(seed, ops(opDelete, all[i])...)
	}
	seeds = append(seeds, append(seed, ops(opGet, all...)...))
	return seeds
}

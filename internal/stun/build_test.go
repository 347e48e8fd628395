package stun

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/mobility"
	"repro/internal/treedir"
)

// treeDigest hashes every tree node as "id parent host" lines and returns
// the first 8 bytes of the SHA-256 in hex.
func treeDigest(tr *treedir.Tree) string {
	h := sha256.New()
	for id := 0; id < tr.Len(); id++ {
		fmt.Fprintf(h, "%d %d %d\n", id, tr.Parent(id), tr.Host(id))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGoldenSTUNTrees pins the trees BuildTree produces to the node: the
// paper sweep's grids and workload (100 objects × 200 moves, 100 queries)
// at the sweep's first two seed streams, a ring with one edge of weight 7
// (integer weights above 1) and a random geometric graph, whose Euclidean
// weights are not integers. The values were recorded before the build
// kept per-sensor distance sums.
func TestGoldenSTUNTrees(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		cfg  mobility.Config
		want string
	}
	sweep := func(n, seedIdx int, want string) tc {
		return tc{fmt.Sprintf("grid %d stream %d", n, seedIdx), graph.NearSquareGrid(n),
			mobility.Config{Objects: 100, MovesPerObject: 200, Queries: 100, Seed: mobility.StreamSeed(1, n, seedIdx)}, want}
	}
	ring := graph.WeightedRing(120, 7)
	rgg := graph.RandomGeometric(150, 10, 1.5, rand.New(rand.NewSource(3)))
	if !exactSums(ring, ring.Edges()) || exactSums(rgg, rgg.Edges()) {
		t.Fatal("the ring should keep distance sums and the random geometric graph take medoid")
	}
	for _, c := range []tc{
		sweep(256, 0, "5b3b8fda6f29fcfc"),
		sweep(256, 1, "0c3972ae00e4b6c0"),
		sweep(1024, 0, "00f6cdf31230e447"),
		sweep(1024, 1, "cd33c0f5b8c36b89"),
		{"weighted ring", ring, mobility.Config{Objects: 30, MovesPerObject: 80, Seed: 5}, "e5fc3afa8413705d"},
		{"random geometric", rgg, mobility.Config{Objects: 30, MovesPerObject: 80, Seed: 6}, "c3a3c0ade6298bad"},
	} {
		m := graph.NewMetric(c.g)
		_, rates := workloadRatesCfg(t, c.g, m, c.cfg)
		tr, err := BuildTree(c.g, m, rates)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := treeDigest(tr); got != c.want {
			t.Errorf("%s: tree digest %s, want %s", c.name, got, c.want)
		}
	}
}

// FuzzBuildTree draws rate maps from the input over three graphs: a grid,
// a ring with one heavy edge, and a random geometric graph. Each triple of
// bytes is one key (endpoints that may fall outside the graph or be no
// edge) and its rate (0–7, with NaN, -1 and +Inf among the rest).
// BuildTree must not panic, must fail exactly when some key is not an
// edge, and must build the tree the direct medoid builds.
func FuzzBuildTree(f *testing.F) {
	graphs := []*graph.Graph{
		graph.Grid(5, 5),
		graph.WeightedRing(12, 3),
		graph.RandomGeometric(20, 4, 1.3, rand.New(rand.NewSource(9))),
	}
	metrics := make([]*graph.Metric, len(graphs))
	for i, g := range graphs {
		metrics[i] = graph.NewMetric(g)
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{2, 3, 5, 2, 7, 5, 8, 9, 1, 12, 13, 5})
	f.Add(uint8(0), []byte{2, 3, 5, 2, 18, 5})    // {0,16} is no edge
	f.Add(uint8(0), []byte{1, 250, 3, 2, 3, 255}) // an endpoint out of range; NaN
	f.Add(uint8(1), []byte{2, 3, 1, 3, 4, 1, 13, 2, 2, 4, 5, 253})
	f.Add(uint8(1), []byte{2, 4, 6})
	f.Add(uint8(2), []byte{2, 3, 2, 4, 5, 2, 6, 7, 254, 9, 10, 1})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		gi := int(which) % len(graphs)
		g, m := graphs[gi], metrics[gi]
		n := g.N()
		rates := map[mobility.EdgeKey]float64{}
		wantErr := false
		for i := 0; i+2 < len(data); i += 3 {
			k := mobility.EdgeKey{U: graph.NodeID(int(data[i])%(n+4) - 2), V: graph.NodeID(int(data[i+1])%(n+4) - 2)}
			r := float64(data[i+2] % 8)
			switch data[i+2] {
			case 255:
				r = math.NaN()
			case 254:
				r = -1
			case 253:
				r = math.Inf(1)
			}
			rates[k] = r
			wantErr = wantErr || !g.HasEdge(k.U, k.V)
		}
		tr, err := BuildTree(g, m, rates)
		if (err != nil) != wantErr {
			t.Fatalf("graph %d, rates %v: error %v, want one: %t", gi, rates, err, wantErr)
		}
		if err != nil {
			return
		}
		if tr.Len() != 2*n-1 {
			t.Fatalf("graph %d: %d tree nodes for %d sensors", gi, tr.Len(), n)
		}
		ref, err := buildTree(g, m, rates, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := treeDigest(tr), treeDigest(ref); got != want {
			t.Fatalf("graph %d, rates %v: tree %s, the direct medoid's %s", gi, rates, got, want)
		}
	})
}

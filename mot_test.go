package mot

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	g := Grid(8, 8)
	tr, err := NewTracker(g, Options{Seed: 1, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(1, 8); err != nil {
		t.Fatal(err)
	}
	proxy, cost, err := tr.Query(63, 1)
	if err != nil {
		t.Fatal(err)
	}
	if proxy != 8 {
		t.Fatalf("proxy %d", proxy)
	}
	if cost < tr.Metric().Dist(63, 8) {
		t.Fatalf("cost %v below optimal", cost)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.OverlayHeight() < 2 {
		t.Fatalf("overlay height %d", tr.OverlayHeight())
	}
	if tr.RootNode() == Undefined {
		t.Fatal("no root node")
	}
	if objs := tr.Objects(); len(objs) != 1 || objs[0] != 1 {
		t.Fatalf("objects %v", objs)
	}
}

func TestTrackerVariants(t *testing.T) {
	g := Grid(7, 7)
	for _, opt := range []Options{
		{Seed: 1},
		{Seed: 1, UseParentSets: true, SpecialParentOffset: 2},
		{Seed: 1, LoadBalance: true},
		{GeneralOverlay: true, SpecialParentOffset: 2},
		{Seed: 1, CountSpecialParentCost: true, CountReply: true, SpecialParentOffset: 1},
	} {
		tr, err := NewTracker(g, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		rng := rand.New(rand.NewSource(5))
		cur := NodeID(24)
		if err := tr.Publish(7, cur); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			nbrs := g.NeighborIDs(cur)
			cur = nbrs[rng.Intn(len(nbrs))]
			if err := tr.Move(7, cur); err != nil {
				t.Fatalf("%+v move: %v", opt, err)
			}
		}
		got, _, err := tr.Query(0, 7)
		if err != nil {
			t.Fatalf("%+v query: %v", opt, err)
		}
		if got != cur {
			t.Fatalf("%+v: query said %d, proxy %d", opt, got, cur)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
	}
}

func TestTrackerRejectsDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.MustAddEdge(0, 1, 1)
	if _, err := NewTracker(g, Options{}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := NewTracker(g, Options{GeneralOverlay: true}); err == nil {
		t.Fatal("disconnected graph accepted by general overlay")
	}
}

func TestBaselinesSideBySide(t *testing.T) {
	g := Grid(7, 7)
	m := NewMetric(g)
	w, err := GenerateWorkload(g, m, WorkloadConfig{Objects: 6, MovesPerObject: 60, Queries: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rates := DetectionRates(w, g)

	mot, err := NewTrackerWithMetric(g, m, Options{Seed: 2, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	stunDir, err := NewSTUN(g, m, rates)
	if err != nil {
		t.Fatal(err)
	}
	zdatDir, err := NewZDAT(g, m, rates, ZDATOptions{ZoneDepth: 2, Sink: Undefined})
	if err != nil {
		t.Fatal(err)
	}
	zsc, err := NewZDAT(g, m, rates, ZDATOptions{ZoneDepth: 2, Shortcuts: true, Sink: Undefined})
	if err != nil {
		t.Fatal(err)
	}
	finals := w.FinalLocations()
	for _, d := range []Directory{mot, stunDir, zdatDir, zsc} {
		meter, err := Replay(d, w)
		if err != nil {
			t.Fatal(err)
		}
		if meter.MaintRatio() < 1 {
			t.Fatalf("maintenance ratio %v", meter.MaintRatio())
		}
		for o, want := range finals {
			if got, _ := d.Location(ObjectID(o)); got != want {
				t.Fatalf("location of %d: %d want %d", o, got, want)
			}
		}
		if len(d.LoadByNode()) != g.N() {
			t.Fatal("load vector size")
		}
	}
}

func TestRunConcurrentFacade(t *testing.T) {
	g := Grid(7, 7)
	m := NewMetric(g)
	w, err := GenerateWorkload(g, m, WorkloadConfig{Objects: 5, MovesPerObject: 30, Queries: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConcurrent(g, w, ConcurrentOptions{Seed: 3, PeriodSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Meter.MaintOps == 0 || len(res.Queries) != len(w.Queries) {
		t.Fatalf("result %+v", res.Meter)
	}
}

func TestDistributedFacade(t *testing.T) {
	g := Grid(6, 6)
	d, err := NewDistributed(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(1, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Query(35, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("query said %d", got)
	}
	if d.Cost() <= 0 {
		t.Fatal("no cost accrued")
	}
	if loc, ok := d.Location(1); !ok || loc != 1 {
		t.Fatalf("location %d %t", loc, ok)
	}
	d.Close()
	if err := d.Move(1, 2); !errors.Is(err, ErrStopped) {
		t.Fatalf("move after Close: %v, want ErrStopped", err)
	}
}

func TestRunFigureFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFigure(99, 0.05, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// An out-of-range scale used to be replaced by 1, starting a
	// full-scale run instead of failing.
	for _, scale := range []float64{0, -1, math.NaN()} {
		if err := RunFigure(8, scale, &buf); err == nil {
			t.Fatalf("RunFigure(8, %v) accepted an out-of-range scale", scale)
		}
	}
	ids := FigureIDs()
	if len(ids) != 12 {
		t.Fatalf("figure ids %v", ids)
	}
	if err := RunFigure(8, 0.05, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Fatalf("output %q", buf.String())
	}
}

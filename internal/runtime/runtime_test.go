package runtime

import (
	"errors"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
)

func newTracker(t testing.TB, w, h int) (*Tracker, *graph.Graph) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	t.Cleanup(tr.Stop)
	return tr, g
}

func TestPublishQuerySingle(t *testing.T) {
	tr, g := newTracker(t, 6, 6)
	if err := tr.Publish(1, 17); err != nil {
		t.Fatal(err)
	}
	if err := tr.Publish(1, 0); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	for u := 0; u < g.N(); u += 5 {
		got, cost, err := tr.Query(graph.NodeID(u), 1)
		if err != nil {
			t.Fatalf("query from %d: %v", u, err)
		}
		if got != 17 {
			t.Fatalf("query from %d said %d", u, got)
		}
		if cost < 0 {
			t.Fatalf("negative cost %v", cost)
		}
	}
	if tr.Cost() <= 0 {
		t.Fatal("no message cost recorded")
	}
}

func TestMoveAndTrack(t *testing.T) {
	tr, g := newTracker(t, 7, 7)
	if err := tr.Publish(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(9, 1); err == nil {
		t.Fatal("move of unpublished accepted")
	}
	if _, _, err := tr.Query(0, 9); err == nil {
		t.Fatal("query of unpublished accepted")
	}
	rng := rand.New(rand.NewSource(8))
	cur := graph.NodeID(0)
	for i := 0; i < 60; i++ {
		nbrs := g.NeighborIDs(cur)
		cur = nbrs[rng.Intn(len(nbrs))]
		if err := tr.Move(2, cur); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
		if v, _ := tr.Location(2); v != cur {
			t.Fatalf("location %d want %d", v, cur)
		}
	}
	got, _, err := tr.Query(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Fatalf("query said %d, proxy %d", got, cur)
	}
}

func TestMoveNoop(t *testing.T) {
	tr, _ := newTracker(t, 4, 4)
	if err := tr.Publish(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(1, 3); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Location(1); v != 3 {
		t.Fatal("no-op move changed location")
	}
}

// Many objects tracked concurrently from multiple client goroutines — walks
// of different objects interleave visit by visit without corruption.
func TestConcurrentObjectsParallelClients(t *testing.T) {
	tr, g := newTracker(t, 8, 8)
	const objs = 12
	var wg sync.WaitGroup
	errCh := make(chan error, objs)
	finals := make([]graph.NodeID, objs)
	for o := 0; o < objs; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + o)))
			cur := graph.NodeID(rng.Intn(g.N()))
			if err := tr.Publish(core.ObjectID(o), cur); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < 40; i++ {
				nbrs := g.NeighborIDs(cur)
				cur = nbrs[rng.Intn(len(nbrs))]
				if err := tr.Move(core.ObjectID(o), cur); err != nil {
					errCh <- err
					return
				}
				if i%10 == 0 {
					from := graph.NodeID(rng.Intn(g.N()))
					got, _, err := tr.Query(from, core.ObjectID(o))
					if err != nil {
						errCh <- err
						return
					}
					if got != cur {
						errCh <- errQuery{o: o, got: got, want: cur}
						return
					}
				}
			}
			finals[o] = cur
		}(o)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for o := 0; o < objs; o++ {
		got, _, err := tr.Query(0, core.ObjectID(o))
		if err != nil {
			t.Fatal(err)
		}
		if got != finals[o] {
			t.Fatalf("object %d at %d, query said %d", o, finals[o], got)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

type errQuery struct {
	o         int
	got, want graph.NodeID
}

func (e errQuery) Error() string {
	return "query mismatch"
}

func TestStopTerminates(t *testing.T) {
	g := graph.Grid(4, 4)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Stop() // must return promptly; Cleanup-free direct call
}

// TestStopFailsLaterOps: an operation issued after Stop returns
// ErrStopped instead of blocking, and leaves its object's lock stripe
// free for the next one.
func TestStopFailsLaterOps(t *testing.T) {
	tr, _ := newTracker(t, 4, 4)
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	done := make(chan error, 1)
	go func() {
		for _, op := range []func() error{
			func() error { return tr.Move(1, 5) },
			func() error { return tr.Move(1+objStripes, 5) }, // same stripe
			func() error { _, _, err := tr.Query(3, 1); return err },
			func() error { return tr.Publish(2, 0) },
		} {
			if err := op(); !errors.Is(err, ErrStopped) {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("operation after Stop: got %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("operation after Stop still blocked after 2s")
	}
	if v, ok := tr.Location(1); !ok || v != 0 {
		t.Fatalf("Location after Stop = (%d, %v), want (0, true)", v, ok)
	}
}

// TestStopWhileClientsRun: Stop lands while clients publish, move and
// query. Every call returns nil or ErrStopped, none hangs, and the
// directory stays consistent.
func TestStopWhileClientsRun(t *testing.T) {
	tr, g := newTracker(t, 6, 6)
	const objs = 8
	errCh := make(chan error, objs)
	var clients, published sync.WaitGroup
	published.Add(objs)
	for o := 0; o < objs; o++ {
		clients.Add(1)
		go func(o int) {
			defer clients.Done()
			rng := rand.New(rand.NewSource(int64(300 + o)))
			check := func(err error) bool {
				if err != nil && !errors.Is(err, ErrStopped) {
					errCh <- err
					return false
				}
				return true
			}
			ok := check(tr.Publish(core.ObjectID(o), graph.NodeID(rng.Intn(g.N()))))
			published.Done()
			if !ok {
				return
			}
			for i := 0; i < 200; i++ {
				if !check(tr.Move(core.ObjectID(o), graph.NodeID(rng.Intn(g.N())))) {
					return
				}
				if _, _, err := tr.Query(graph.NodeID(rng.Intn(g.N())), core.ObjectID(o)); !check(err) {
					return
				}
			}
		}(o)
	}
	published.Wait() // Stop lands while the clients move and query
	tr.Stop()
	done := make(chan struct{})
	go func() {
		clients.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked 10s after Stop")
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNewStartsNoGoroutines pins the transport's footprint: a tracker
// runs its operations on the callers' goroutines, so neither New nor
// its operations start any.
func TestNewStartsNoGoroutines(t *testing.T) {
	g := graph.Grid(64, 64)
	hs, err := hier.Build(g, graph.NewOracle(g, graph.OracleConfig{Seed: 1}), hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := goruntime.NumGoroutine()
	tr := New(g, hs)
	defer tr.Stop()
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 0; i < 50; i++ {
		if err := tr.Move(1, graph.NodeID((i*61+7)%n)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Query(graph.NodeID((i*97)%n), 1); err != nil {
			t.Fatal(err)
		}
	}
	if grown := goruntime.NumGoroutine() - before; grown >= 10 {
		t.Fatalf("New and 100 operations raised the goroutine count by %d, want < 10", grown)
	}
}

// TestTrackerOpsZeroAllocs: once the walked detection paths are cached
// and their stations' slots exist, a Move+Query round trip allocates
// nothing (the operation lives on the caller's stack).
func TestTrackerOpsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain tier")
	}
	g := graph.Grid(32, 32)
	m := graph.NewMetric(g)
	m.Precompute(0)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs)
	defer tr.Stop()
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	n := g.N()
	i := 0
	op := func() {
		if err := tr.Move(1, graph.NodeID(1+i%(n-2))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Query(graph.NodeID(n-1), 1); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < n {
		op() // warm every DPath and station slot the loop touches
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("Move+Query allocates %v per round trip, want 0", allocs)
	}
}

// panicOverlay is an overlay whose HomeStation, which the handler's Step
// calls, panics on its at-th call.
type panicOverlay struct {
	overlay.Overlay
	calls, at int
}

func (p *panicOverlay) HomeStation(u graph.NodeID, level int) overlay.Station {
	p.calls++
	if p.calls == p.at {
		panic("planted HomeStation panic")
	}
	return p.Overlay.HomeStation(u, level)
}

// TestStepPanicReleasesStoreLock plants a panic inside a station visit
// and requires the tracker's next Publish and Query to return: a store
// lock left held by the panicking visit would hang them.
func TestStepPanicReleasesStoreLock(t *testing.T) {
	g := graph.Grid(6, 6)
	// Parent sets put several stations on a level, where the handler
	// looks up the home station.
	hs, err := hier.Build(g, graph.NewMetric(g), hier.Config{Seed: 1, UseParentSets: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, &panicOverlay{Overlay: hs, at: 1})
	t.Cleanup(tr.Stop)
	// within runs op on its own goroutine and reports whether it panicked;
	// the test fails if op does not return within a few seconds.
	within := func(what string, op func() error) (err error, panicked bool) {
		t.Helper()
		type result struct {
			err      error
			panicked bool
		}
		done := make(chan result, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- result{panicked: true}
				}
			}()
			done <- result{err: op()}
		}()
		select {
		case r := <-done:
			return r.err, r.panicked
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return within 5s", what)
			return nil, false
		}
	}
	if _, panicked := within("the planted publish", func() error { return tr.Publish(1, 3) }); !panicked {
		t.Fatal("the planted HomeStation panic did not fire")
	}
	if err, _ := within("publish after the panic", func() error { return tr.Publish(2, 20) }); err != nil {
		t.Fatalf("publish after the panic: %v", err)
	}
	var proxy graph.NodeID
	if err, _ := within("query after the panic", func() (err error) {
		proxy, _, err = tr.Query(0, 2)
		return err
	}); err != nil || proxy != 20 {
		t.Fatalf("query after the panic: proxy %d, %v; want 20", proxy, err)
	}
}

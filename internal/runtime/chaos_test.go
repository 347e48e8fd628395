package runtime

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
)

func newChaosTracker(t testing.TB, w, h int, cfg chaos.Config) (*Tracker, *graph.Graph) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(g, hs, Options{Chaos: chaos.NewInjector(cfg, g.N())})
	t.Cleanup(tr.Stop)
	return tr, g
}

// Regression: Stop used to panic on the second call (double close of a
// channel). It must stay idempotent — twice sequentially and from many
// goroutines at once under -race.
func TestRaceDoubleStop(t *testing.T) {
	tr, _ := newTracker(t, 4, 4)
	tr.Stop()
	tr.Stop() // second sequential call must not panic

	tr2, _ := newTracker(t, 4, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr2.Stop()
		}()
	}
	wg.Wait()
}

// chaosWorkload drives a small sequential workload and reports the fault
// trace, accounted simulated delay, and how many operations failed with a
// typed delivery error.
func chaosWorkload(t *testing.T, tr *Tracker, g *graph.Graph) (trace string, delay float64, failed int) {
	t.Helper()
	count := func(err error) {
		if err == nil {
			return
		}
		var de *chaos.DeliveryError
		if !errors.As(err, &de) {
			t.Fatalf("unexpected non-chaos error: %v", err)
		}
		failed++
	}
	for o := 1; o <= 3; o++ {
		count(tr.Publish(core.ObjectID(o), graph.NodeID(o*5%g.N())))
	}
	for i := 0; i < 10; i++ {
		count(tr.Move(core.ObjectID(i%3+1), graph.NodeID((i*7+3)%g.N())))
	}
	for i := 0; i < 6; i++ {
		_, _, err := tr.Query(graph.NodeID((i*11)%g.N()), core.ObjectID(i%3+1))
		count(err)
	}
	return tr.FaultTrace().Render(), tr.SimulatedDelay(), failed
}

// The same chaos seed must reproduce the fault trace and accounted delay
// byte for byte across fresh trackers; a different seed must not.
func TestChaosRuntimeTraceReplays(t *testing.T) {
	run := func(seed int64) (string, float64) {
		tr, g := newChaosTracker(t, 6, 6, chaos.Config{
			Seed: seed, DropRate: 0.3, DelayRate: 0.3, MaxAttempts: 10,
		})
		trace, delay, failed := chaosWorkload(t, tr, g)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if failed != 0 {
			t.Fatalf("seed %d: %d operations failed despite a 10-attempt budget", seed, failed)
		}
		if trace == "" {
			t.Fatalf("seed %d: no faults injected at drop rate 0.3", seed)
		}
		if delay <= 0 {
			t.Fatalf("seed %d: retries and slow deliveries accounted no simulated delay", seed)
		}
		return trace, delay
	}
	t1, d1 := run(9)
	t2, d2 := run(9)
	if t1 != t2 || d1 != d2 {
		t.Fatal("same chaos seed did not replay byte-identically")
	}
	t3, _ := run(10)
	if t1 == t3 {
		t.Fatal("different chaos seeds produced identical traces")
	}
}

// Crashed nodes drop every message addressed to them: an operation that
// must route through a crashed station exhausts its budget and fails with
// a typed *chaos.DeliveryError instead of hanging. After Recover, fresh
// operations succeed again.
func TestChaosRuntimeCrashFailsThenRecovers(t *testing.T) {
	tr, g := newChaosTracker(t, 5, 5, chaos.Config{Seed: 1, MaxAttempts: 3})
	if err := tr.Publish(1, 12); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.N(); n++ {
		tr.Crash(graph.NodeID(n))
	}
	err := tr.Move(1, 3)
	var de *chaos.DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("move through a fully crashed network returned %v, want *chaos.DeliveryError", err)
	}
	if de.Attempts != 3 {
		t.Fatalf("delivery gave up after %d attempts, want MaxAttempts=3", de.Attempts)
	}
	if tr.SimulatedDelay() <= 0 {
		t.Fatal("retransmission backoffs accounted no simulated delay")
	}
	// The trace holds only forced crash drops plus the terminal failure.
	crashes, fails := 0, 0
	for _, ev := range tr.FaultTrace().Events() {
		switch ev.Kind {
		case "crash":
			crashes++
		case "fail":
			fails++
		default:
			t.Fatalf("unexpected %q event in crash-only run: %v", ev.Kind, ev)
		}
	}
	if crashes != 3 || fails != 1 {
		t.Fatalf("trace recorded %d crash drops and %d failures, want 3 and 1", crashes, fails)
	}
	for n := 0; n < g.N(); n++ {
		tr.Recover(graph.NodeID(n))
	}
	// The failed move had no effect: object 1 still sits at 12, every
	// origin finds it there, and it moves again.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after a rolled-back move: %v", err)
	}
	if loc, _ := tr.Location(1); loc != 12 {
		t.Fatalf("failed move changed the ground truth to %d, want 12", loc)
	}
	for n := 0; n < g.N(); n++ {
		if got, _, err := tr.Query(graph.NodeID(n), 1); err != nil || got != 12 {
			t.Fatalf("query from %d after the failed move: proxy %d err %v, want 12", n, got, err)
		}
	}
	if err := tr.Move(1, 20); err != nil {
		t.Fatalf("move after the failed move: %v", err)
	}
	if err := tr.Publish(2, 7); err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if err := tr.Move(2, 18); err != nil {
		t.Fatalf("move after recovery: %v", err)
	}
	got, _, err := tr.Query(0, 2)
	if err != nil || got != 18 {
		t.Fatalf("query after recovery: proxy %d err %v, want 18", got, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A publish that fails mid-walk has no effect either: the object stays
// unpublished, no entry of it survives, and a later publish succeeds.
func TestChaosRuntimeFailedPublishHasNoEffect(t *testing.T) {
	tr, g := newChaosTracker(t, 5, 5, chaos.Config{Seed: 1, MaxAttempts: 2})
	for n := 0; n < g.N(); n++ {
		tr.Crash(graph.NodeID(n))
	}
	var de *chaos.DeliveryError
	if err := tr.Publish(1, 12); !errors.As(err, &de) {
		t.Fatalf("publish through a crashed network returned %v, want *chaos.DeliveryError", err)
	}
	for n := 0; n < g.N(); n++ {
		tr.Recover(graph.NodeID(n))
	}
	if _, ok := tr.Location(1); ok {
		t.Fatal("failed publish left the object published")
	}
	for n, c := range tr.LoadByNode() {
		if c != 0 {
			t.Fatalf("failed publish left %d entries at node %d", c, n)
		}
	}
	if err := tr.Publish(1, 12); err != nil {
		t.Fatalf("publish after the failed publish: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Without chaos, the fault surface stays inert: no trace, no delay, and
// Crash on an out-of-range node is ignored.
func TestChaosRuntimeDisabledByDefault(t *testing.T) {
	tr, _ := newTracker(t, 4, 4)
	tr.Crash(-1)
	tr.Crash(10_000)
	if tr.FaultTrace() != nil {
		t.Fatal("FaultTrace non-nil without an injector")
	}
	if tr.SimulatedDelay() != 0 {
		t.Fatal("simulated delay accounted without an injector")
	}
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
}

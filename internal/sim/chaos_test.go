package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
)

// fakeInjector scripts delivery fates for engine-level tests.
type fakeInjector struct {
	dropAll  bool
	dropN    int // drop the first N attempts of every message
	extra    float64
	max      int
	backoff  float64
	failures int
}

func (f *fakeInjector) Attempt(op uint64, hop, attempt int, dest graph.NodeID, dist, now float64) (bool, float64) {
	if f.dropAll || attempt <= f.dropN {
		return true, 0
	}
	return false, f.extra
}
func (f *fakeInjector) MaxAttempts() int            { return f.max }
func (f *fakeInjector) Backoff(attempt int) float64 { return f.backoff }
func (f *fakeInjector) Fail(op uint64, hop, attempts int, dest graph.NodeID, now float64) error {
	f.failures++
	return &chaos.DeliveryError{Op: op, Hop: hop, Attempts: attempts, Dest: dest}
}

// testMsg records what the fault layer does with one message.
type testMsg struct {
	e        *Engine
	attempts int
	firedAt  float64 // -1 until delivered
	failed   error
}

func newTestMsg(e *Engine) *testMsg { return &testMsg{e: e, firedAt: -1} }

func (m *testMsg) Attempt(int)    { m.attempts++ }
func (m *testMsg) Fire()          { m.firedAt = m.e.Now() }
func (m *testMsg) Fail(err error) { m.failed = err }

// Without an injector, Deliver must be byte-identical to After(dist, fn).
func TestChaosDeliverFaultFreeMatchesAfter(t *testing.T) {
	e := NewEngine(0)
	msg := newTestMsg(e)
	e.Deliver(Delivery{Op: 1, Hop: 1, Dest: 3, Dist: 2.5, Msg: msg})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if msg.attempts != 1 || msg.firedAt != 2.5 {
		t.Fatalf("attempts=%d deliveredAt=%v, want 1 and 2.5", msg.attempts, msg.firedAt)
	}
}

// Dropped attempts retry after timeout+backoff and eventually deliver.
func TestChaosDeliverRetriesThenDelivers(t *testing.T) {
	e := NewEngine(0)
	f := &fakeInjector{dropN: 2, max: 5, backoff: 3}
	e.SetFaults(f)
	msg := newTestMsg(e)
	e.Deliver(Delivery{Op: 1, Hop: 1, Dest: 0, Dist: 2, Msg: msg})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if msg.failed != nil {
		t.Fatalf("unexpected failure: %v", msg.failed)
	}
	// Two drops: each costs dist(2)+backoff(3); third attempt travels 2.
	if msg.attempts != 3 || msg.firedAt != 12 {
		t.Fatalf("attempts=%d deliveredAt=%v, want 3 and 12", msg.attempts, msg.firedAt)
	}
}

// Exhausting the budget surfaces the typed error via Fail.
func TestChaosDeliverFailsAfterMaxAttempts(t *testing.T) {
	e := NewEngine(0)
	f := &fakeInjector{dropAll: true, max: 3, backoff: 1}
	e.SetFaults(f)
	msg := newTestMsg(e)
	e.Deliver(Delivery{Op: 7, Hop: 2, Dest: 5, Dist: 1, Msg: msg})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if msg.firedAt >= 0 {
		t.Fatalf("delivered at %v despite dropAll", msg.firedAt)
	}
	var de *chaos.DeliveryError
	if !errors.As(msg.failed, &de) {
		t.Fatalf("Fail got %T %v, want *chaos.DeliveryError", msg.failed, msg.failed)
	}
	if de.Op != 7 || de.Attempts != 3 || de.Dest != 5 {
		t.Fatalf("DeliveryError = %+v", de)
	}
	if f.failures != 1 {
		t.Fatalf("Fail called %d times", f.failures)
	}
}

// chaosSim builds a seeded grid simulation with a scheduled workload.
func chaosSim(t *testing.T, n int, seed int64, cfg Config) (*Engine, *MOTSim, float64, int) {
	t.Helper()
	g := graph.NearSquareGrid(n)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: seed, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0)
	s, err := NewMOT(hs, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 4, MovesPerObject: 20, Queries: 12, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	horizon, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, horizon, g.N()
}

// Across seeds and fault mixes, every chaotic run must end quiescent and
// globally consistent — the recovery invariant of the fault layer.
func TestChaosSimInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, redirects := range []bool{false, true} {
			eng, s, horizon, n := chaosSim(t, 36, seed, Config{PeriodSync: true, Redirects: redirects})
			inj := chaos.NewInjector(chaos.Config{
				Seed: seed, DropRate: 0.2, DelayRate: 0.25,
				CrashRate: 0.15, CrashSpan: 0.4, Horizon: horizon,
				MaxAttempts: 5,
			}, n)
			eng.SetFaults(inj)
			if err := eng.Run(); err != nil {
				t.Fatalf("seed %d redirects %v: %v", seed, redirects, err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("seed %d redirects %v: %v\ntrace:\n%s", seed, redirects, err, inj.Trace().Render())
			}
		}
	}
}

// With a one-attempt budget and aggressive drops, moves must fail, the
// repair path must re-stamp trails (RecoveryOps > 0), and the directory
// must still be consistent at quiescence.
func TestChaosSimRepairsLostMoves(t *testing.T) {
	eng, s, _, n := chaosSim(t, 36, 3, Config{PeriodSync: true})
	inj := chaos.NewInjector(chaos.Config{Seed: 3, DropRate: 0.5, MaxAttempts: 1}, n)
	eng.SetFaults(inj)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repairs: %v", err)
	}
	if len(s.Lost()) == 0 {
		t.Fatal("no operations lost despite DropRate=0.5 with MaxAttempts=1")
	}
	meter := s.Meter()
	if meter.RecoveryOps == 0 || meter.RecoveryCost <= 0 {
		t.Fatalf("repair path not exercised: %d ops, cost %v", meter.RecoveryOps, meter.RecoveryCost)
	}
	if len(s.Errors()) != 0 {
		t.Fatalf("protocol errors under chaos: %v", s.Errors())
	}
}

// Replaying the same simulation with the same chaos seed must reproduce the
// fault trace and meter byte for byte; a different chaos seed must not.
func TestChaosSimTraceReplays(t *testing.T) {
	run := func(chaosSeed int64) (string, string) {
		eng, s, horizon, n := chaosSim(t, 36, 5, Config{PeriodSync: true})
		inj := chaos.NewInjector(chaos.Config{
			Seed: chaosSeed, DropRate: 0.25, DelayRate: 0.2,
			CrashRate: 0.1, CrashSpan: 0.3, Horizon: horizon, MaxAttempts: 4,
		}, n)
		eng.SetFaults(inj)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return inj.Trace().Render(), fmt.Sprintf("%+v", s.Meter())
	}
	t1, m1 := run(42)
	t2, m2 := run(42)
	if t1 != t2 || m1 != m2 {
		t.Fatal("same chaos seed did not replay byte-identically")
	}
	t3, _ := run(43)
	if t1 == t3 {
		t.Fatal("different chaos seeds produced identical traces")
	}
}

// A quiescent chaotic run leaves parked queries released: every waiter map
// must be empty after the run (queries either completed, were lost, or
// chased a repaired proxy).
func TestChaosSimNoStrandedWaiters(t *testing.T) {
	eng, s, horizon, n := chaosSim(t, 49, 7, Config{PeriodSync: true})
	inj := chaos.NewInjector(chaos.Config{
		Seed: 7, DropRate: 0.3, CrashRate: 0.2, CrashSpan: 0.5,
		Horizon: horizon, MaxAttempts: 3,
	}, n)
	eng.SetFaults(inj)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, byObj := range s.waiters {
		for o, ws := range byObj {
			if len(ws) > 0 {
				t.Fatalf("stranded waiters for object %d at slot %v", o, k)
			}
		}
	}
	// Every completed query found the true proxy at its completion time
	// (complete() requires it); count sanity only.
	if len(s.Results())+len(s.Lost()) == 0 {
		t.Fatal("no queries completed or were lost")
	}
}

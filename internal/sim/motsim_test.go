package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
)

// TestGoldenMOTSimSchedule pins one concurrent MOT schedule to the
// event, as TestGoldenTreeSimSchedule does for the tree baselines: the
// engine's step count, the queries that waited at a stale proxy, the
// restarts, the operations the fault layer lost, and the bits of both cost
// sums, under each concurrency setting and once under injected faults.
// FIFO ties in the engine break on the order of At/After calls, so any
// change in what the simulator schedules, or when, moves a number here.
func TestGoldenMOTSimSchedule(t *testing.T) {
	g := graph.Grid(12, 12)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 4, SpecialParentOffset: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mobility.Generate(g, m, mobility.Config{Objects: 8, MovesPerObject: 60, Queries: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		cfg          Config
		chaos        bool
		steps        int64
		waited       int
		restarts     int
		lost         int
		maint, query uint64
	}{
		{"PeriodSync", Config{PeriodSync: true}, false, 14340, 185, 3882, 0, 0x40b3660000000000, 0x40c4f98000000000},
		{"PeriodSync+Redirects", Config{PeriodSync: true, Redirects: true}, false, 14330, 185, 3888, 0, 0x40b3660000000000, 0x40c4d28000000000},
		{"neither", Config{}, false, 6320, 55, 299, 0, 0x40b3660000000000, 0x40bf430000000000},
		{"PeriodSync+chaos", Config{PeriodSync: true}, true, 10282, 113, 1054, 185, 0x40b3330000000000, 0x40b8a60000000000},
	} {
		eng := NewEngine(0)
		s, err := NewMOT(hs, eng, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		horizon, err := Schedule(s, w, DriverConfig{Diameter: m.Diameter(), Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var inj *chaos.Injector
		if c.chaos {
			inj = chaos.NewInjector(chaos.Config{
				Seed: 4, DropRate: 0.2, DelayRate: 0.25, CrashRate: 0.15, CrashSpan: 0.4,
				Horizon: horizon, MaxAttempts: 5,
			}, g.N())
			eng.SetFaults(inj)
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		waited, restarts := 0, 0
		for _, r := range s.Results() {
			if r.Waited {
				waited++
			}
			restarts += r.Restarts
		}
		mt := s.Meter()
		if eng.Steps() != c.steps || waited != c.waited || restarts != c.restarts || len(s.Lost()) != c.lost ||
			math.Float64bits(mt.MaintCost) != c.maint || math.Float64bits(mt.QueryCost) != c.query {
			t.Errorf("%s: steps %d waited %d restarts %d lost %d maint %#x query %#x; golden %d %d %d %d %#x %#x", c.name,
				eng.Steps(), waited, restarts, len(s.Lost()), math.Float64bits(mt.MaintCost), math.Float64bits(mt.QueryCost),
				c.steps, c.waited, c.restarts, c.lost, c.maint, c.query)
		}
		if inj == nil {
			continue
		}
		const recovery, trace = 0x40c0428000000000, "25652c2219a82668"
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(inj.Trace().Render())))[:16]
		if math.Float64bits(mt.RecoveryCost) != recovery || sum != trace {
			t.Errorf("%s: recovery %#x trace %s; golden %#x %s", c.name, math.Float64bits(mt.RecoveryCost), sum, uint64(recovery), trace)
		}
	}
}

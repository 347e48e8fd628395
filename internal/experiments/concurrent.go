package experiments

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// runConcurrentAll drives the workload through the discrete-event
// simulator for the four algorithms (Figs. 12–15 setting: bursts of up to
// 10 concurrent operations per object, queries overlapping maintenance).
func runConcurrentAll(cfg CostRatioConfig, n int, g *graph.Graph, m *graph.Metric, w *mobility.Workload, rates map[mobility.EdgeKey]float64, seed int64) ([]core.CostMeter, error) {
	meters := make([]core.CostMeter, len(Algorithms))
	diam := m.Diameter()
	dcfg := sim.DriverConfig{Concurrency: cfg.Concurrency, Diameter: diam, Seed: seed}

	// MOT on the event simulator. The concurrent simulator requires the
	// single-parent overlay (Algorithm 1's simple form).
	hs, err := hierSubstrate(n, g, m, hier.Config{Seed: seed, SpecialParentOffset: 2}, cfg.DisableSubstrateCache)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(0)
	ms, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: true})
	if err != nil {
		return nil, err
	}
	if _, err := sim.Schedule(ms, w, dcfg); err != nil {
		return nil, err
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}
	if err := ms.CheckInvariants(); err != nil {
		return nil, err
	}
	meters[0] = ms.Meter()

	// Tree baselines on the same schedule.
	for ai, alg := range Algorithms[1:] {
		t, tc, err := baselineTree(alg, g, m, rates, cfg.ZoneDepth)
		if err != nil {
			return nil, err
		}
		eng := sim.NewEngine(0)
		ts, err := sim.NewTree(t, m, eng, tc)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Schedule(ts, w, dcfg); err != nil {
			return nil, err
		}
		if err := eng.Run(); err != nil {
			return nil, err
		}
		if err := ts.CheckInvariants(); err != nil {
			return nil, err
		}
		meters[1+ai] = ts.Meter()
	}
	return meters, nil
}

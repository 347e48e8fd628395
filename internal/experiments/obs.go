package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/obs/live"
	motruntime "repro/internal/runtime"
	"repro/internal/sim"
)

// Observability run names, in report order. The four runs replay one
// seeded workload on every substrate: the sequential core with §5 load
// balancing on and off (the per-node load comparison), the discrete-event
// simulator, and the goroutine runtime in sequential replay.
const (
	ObsRunCoreLB   = "core-lb"
	ObsRunCoreNoLB = "core-nolb"
	ObsRunSim      = "sim"
	ObsRunRuntime  = "runtime"
)

// ObsRuns is the fixed run set of an observability sweep.
var ObsRuns = []string{ObsRunCoreLB, ObsRunCoreNoLB, ObsRunSim, ObsRunRuntime}

// ObsConfig parameterizes an observability sweep: one seeded workload
// traced on all substrates.
type ObsConfig struct {
	// BaseSeed salts the shared workload stream; the sweep runs on
	// mobility.StreamSeed(BaseSeed, Size, 0).
	BaseSeed int64
	// Size is the sensor count (a near-square grid).
	Size int
	// Objects / MovesPerObject / Queries shape the workload.
	Objects        int
	MovesPerObject int
	Queries        int
	// Workers bounds the pool running the four runs concurrently. Runs
	// share only immutable substrates (each derives its own workload and
	// recorder from the same seed), so any value yields byte-identical
	// recorders.
	Workers int
	// DisableSubstrateCache makes every run rebuild its own grid, metric,
	// and hierarchy instead of sharing the substrate cache.
	DisableSubstrateCache bool
	// LiveTelemetry attaches a wall-clock live recorder to the runtime
	// run (the only substrate with real per-op wall time). The live
	// layer is additive: it populates ObsResult.Live for diagnostics
	// (`motsim -live-summary`, latency report columns) and never touches
	// the deterministic recorders, so every Write* artifact stays
	// byte-identical to a live-off run.
	LiveTelemetry bool
}

func (c *ObsConfig) fill() {
	fillInt(&c.Size, 64)
	fillInt(&c.Objects, 8)
	fillInt(&c.MovesPerObject, 40)
	fillInt(&c.Queries, 30)
	fillWorkers(&c.Workers)
}

// ObsResult carries one recorder per run, in ObsRuns order. The Write
// methods delegate to internal/obs's deterministic exporters, so equal
// configs produce byte-identical artifacts at any worker count.
type ObsResult struct {
	Config    ObsConfig
	Seed      int64
	Recorders []*obs.Recorder
	// Live holds each run's wall-clock recorder, aligned with Recorders
	// (nil entries for runs without one; all nil unless
	// Config.LiveTelemetry). Non-deterministic by nature — summaries and
	// report latency columns only, never the Write* artifacts.
	Live []*live.Recorder
}

// WriteTraceJSONL writes every run's spans as sorted JSON lines.
func (r *ObsResult) WriteTraceJSONL(w io.Writer) error {
	return obs.WriteJSONLAll(w, r.Recorders...)
}

// WriteMetricsCSV writes every run's metrics as one CSV.
func (r *ObsResult) WriteMetricsCSV(w io.Writer) error {
	return obs.WriteMetricsCSVAll(w, r.Recorders...)
}

// WriteChromeTrace writes a Chrome trace-event JSON covering all runs.
func (r *ObsResult) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, r.Recorders...)
}

// Recorder returns the named run's recorder (nil if absent).
func (r *ObsResult) Recorder(name string) *obs.Recorder {
	for _, rec := range r.Recorders {
		if rec.Label() == name {
			return rec
		}
	}
	return nil
}

// LiveFor returns the named run's live wall-clock recorder, or nil when
// the run has none (live telemetry off, or a substrate it never
// attaches to).
func (r *ObsResult) LiveFor(name string) *live.Recorder {
	for i, rec := range r.Recorders {
		if rec.Label() == name && i < len(r.Live) {
			return r.Live[i]
		}
	}
	return nil
}

// HasLive reports whether any run carries a live recorder.
func (r *ObsResult) HasLive() bool {
	for _, lrec := range r.Live {
		if lrec != nil {
			return true
		}
	}
	return false
}

// RunObs traces one seeded workload on every substrate and returns the
// recorders in ObsRuns order. Runs execute on cfg.Workers goroutines;
// each run only ever touches its own recorder, so scheduling cannot leak
// into the artifacts and Workers=N output is byte-identical to Workers=1.
func RunObs(cfg ObsConfig) (*ObsResult, error) {
	cfg.fill()
	seed := mobility.StreamSeed(cfg.BaseSeed, cfg.Size, 0)
	res := &ObsResult{
		Config:    cfg,
		Seed:      seed,
		Recorders: make([]*obs.Recorder, len(ObsRuns)),
		Live:      make([]*live.Recorder, len(ObsRuns)),
	}
	type obsOut struct {
		rec  *obs.Recorder
		lrec *live.Recorder
	}
	outs, err := orderedPool(cfg.Workers, len(ObsRuns), func(ri int) (obsOut, error) {
		rec, lrec, err := runObsOne(cfg, ObsRuns[ri], seed)
		if err != nil {
			return obsOut{}, fmt.Errorf("experiments: obs run %s: %w", ObsRuns[ri], err)
		}
		return obsOut{rec, lrec}, nil
	})
	if err != nil {
		return nil, err
	}
	for ri, o := range outs {
		res.Recorders[ri], res.Live[ri] = o.rec, o.lrec
	}
	return res, nil
}

// runObsOne replays the seeded workload on one substrate under a fresh
// recorder. The grid, metric, and hierarchy come from the shared
// substrate cache (all four runs use the same seed, so they share one
// hierarchy); each run still derives its own workload and recorder from
// seed, so it is fully reproducible in isolation.
func runObsOne(cfg ObsConfig, name string, seed int64) (*obs.Recorder, *live.Recorder, error) {
	g, m := gridSubstrate(cfg.Size, cfg.DisableSubstrateCache)
	w, err := mobility.Generate(g, m, mobility.Config{
		Objects:        cfg.Objects,
		MovesPerObject: cfg.MovesPerObject,
		Queries:        cfg.Queries,
		Seed:           seed,
	})
	if err != nil {
		return nil, nil, err
	}
	hs, err := hierSubstrate(cfg.Size, g, m, hier.Config{Seed: seed, SpecialParentOffset: 2}, cfg.DisableSubstrateCache)
	if err != nil {
		return nil, nil, err
	}
	rec := obs.New(name)
	var lrec *live.Recorder
	switch name {
	case ObsRunCoreLB, ObsRunCoreNoLB:
		dcfg := core.Config{Obs: rec}
		if name == ObsRunCoreLB {
			dcfg.Placement = lb.New(hs)
		}
		d := core.New(hs, dcfg)
		if err := replayCore(d, w); err != nil {
			return nil, nil, err
		}
		d.ObserveLoad(g.N())
	case ObsRunSim:
		eng := sim.NewEngine(0)
		ms, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: true, Obs: rec})
		if err != nil {
			return nil, nil, err
		}
		if _, err := sim.Schedule(ms, w, sim.DriverConfig{Diameter: m.Diameter(), Seed: seed}); err != nil {
			return nil, nil, err
		}
		if err := eng.Run(); err != nil {
			return nil, nil, err
		}
	case ObsRunRuntime:
		if cfg.LiveTelemetry {
			lrec = live.New(name, live.Config{Seed: seed})
		}
		tr := motruntime.New(g, hs, motruntime.Options{Obs: rec, Live: lrec})
		defer tr.Stop()
		if err := replayRuntime(tr, w); err != nil {
			return nil, nil, err
		}
		tr.ObserveLoad()
	default:
		return nil, nil, fmt.Errorf("unknown run %q", name)
	}
	return rec, lrec, nil
}

// replayCore drives the workload through a sequential directory.
func replayCore(d *core.Directory, w *mobility.Workload) error {
	for o, at := range w.Initial {
		if err := d.Publish(core.ObjectID(o), at); err != nil {
			return err
		}
	}
	for _, mv := range w.Moves {
		if err := d.Move(mv.Object, mv.To); err != nil {
			return err
		}
	}
	for _, q := range w.Queries {
		if _, _, err := d.Query(q.From, q.Object); err != nil {
			return err
		}
	}
	return nil
}

// replayRuntime drives the workload through the goroutine runtime
// sequentially: each operation completes before the next is issued, so
// the recorder's cost clock (and with it the trace) is deterministic.
func replayRuntime(tr *motruntime.Tracker, w *mobility.Workload) error {
	for o, at := range w.Initial {
		if err := tr.Publish(core.ObjectID(o), at); err != nil {
			return err
		}
	}
	for _, mv := range w.Moves {
		if err := tr.Move(mv.Object, mv.To); err != nil {
			return err
		}
	}
	for _, q := range w.Queries {
		if _, _, err := tr.Query(q.From, q.Object); err != nil {
			return err
		}
	}
	return nil
}

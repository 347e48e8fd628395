package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/mobility"
	motruntime "repro/internal/runtime"
	"repro/internal/sim"
)

// ChaosConfig parameterizes the chaos tier: seeded crash/drop/delay
// schedules replayed on both execution substrates (the discrete-event
// simulator and the goroutine runtime). Every schedule's fault plan is a
// pure function of (BaseSeed, Size, schedule index), so the produced fault
// traces are byte-identical across runs and worker counts.
type ChaosConfig struct {
	// BaseSeed salts every schedule's stream; schedule i runs on
	// mobility.StreamSeed(BaseSeed, Size, i).
	BaseSeed int64
	// Size is the target sensor count (a near-square grid).
	Size int
	// Objects / MovesPerObject / Queries shape the workload.
	Objects        int
	MovesPerObject int
	Queries        int
	// Schedules is the number of independent chaos schedules.
	Schedules int
	// DropRate / DelayRate / DelayFactor / CrashRate / CrashSpan configure
	// the fault plan (zero value defaults below; negative rates disable
	// that fault). CrashSpan is each crash window's length as a fraction
	// of the schedule horizon — long windows outlast retransmission
	// budgets, forcing delivery failures and the repair path.
	DropRate    float64
	DelayRate   float64
	DelayFactor float64
	CrashRate   float64
	CrashSpan   float64
	// MaxAttempts bounds per-message retransmissions.
	MaxAttempts int
	// Workers bounds the pool running schedules concurrently; any value
	// yields byte-identical results.
	Workers int
	// DisableSubstrateCache makes every schedule rebuild its own grid,
	// metric, and hierarchy instead of sharing the substrate cache.
	DisableSubstrateCache bool
}

// fillRate defaults a zero rate and clamps negative ("disabled") to 0.
func fillRate(v *float64, def float64) {
	if *v == 0 {
		*v = def
	}
	if *v < 0 {
		*v = 0
	}
}

func (c *ChaosConfig) fill() {
	fillInt(&c.Size, 49)
	fillInt(&c.Objects, 4)
	fillInt(&c.MovesPerObject, 25)
	fillInt(&c.Queries, 15)
	fillInt(&c.Schedules, 3)
	fillRate(&c.DropRate, 0.15)
	fillRate(&c.DelayRate, 0.2)
	fillRate(&c.CrashRate, 0.1)
	fillRate(&c.CrashSpan, 0.4)
	fillInt(&c.MaxAttempts, 6)
	fillWorkers(&c.Workers)
}

// ChaosSchedule is the outcome of one seeded schedule on both substrates.
// The trace strings are the golden byte representation of the injected
// faults (chaos.Trace.Render).
type ChaosSchedule struct {
	Index int
	Seed  int64

	// Discrete-event simulator run (crash windows + drops + delays).
	SimTrace     string
	SimMeter     core.CostMeter
	SimCompleted int // queries that completed
	SimLost      int // operations abandoned by the fault layer

	// Goroutine runtime run (drops + delays; no simulated clock).
	RunTrace  string
	RunCost   float64
	RunDelay  float64 // simulated backoff/delay time accounted
	RunFailed int     // operations failed with a *chaos.DeliveryError
}

// SimFaults returns the number of fault events injected into the
// discrete-event simulator run (lines of the golden trace).
func (s *ChaosSchedule) SimFaults() int { return countLines(s.SimTrace) }

// RunFaults returns the number of fault events injected into the
// goroutine-runtime run.
func (s *ChaosSchedule) RunFaults() int { return countLines(s.RunTrace) }

// ChaosResult is the full chaos tier outcome.
type ChaosResult struct {
	Config    ChaosConfig
	Schedules []ChaosSchedule
}

// RunChaos executes cfg.Schedules seeded fault schedules on a worker pool
// and returns their outcomes in schedule order. Each schedule drives the
// same workload through the discrete-event simulator (with crash windows,
// drops, and delays; recovery invariants are asserted at quiescence) and
// through the goroutine runtime (drops and delays with retry/backoff).
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.fill()
	scheds, err := orderedPool(cfg.Workers, cfg.Schedules, func(i int) (ChaosSchedule, error) {
		sched, err := runChaosSchedule(cfg, i)
		if err != nil {
			return sched, fmt.Errorf("experiments: chaos schedule %d: %w", i, err)
		}
		return sched, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{Config: cfg, Schedules: scheds}, nil
}

// runChaosSchedule runs one seeded schedule on both substrates.
func runChaosSchedule(cfg ChaosConfig, idx int) (ChaosSchedule, error) {
	seed := mobility.StreamSeed(cfg.BaseSeed, cfg.Size, idx)
	out := ChaosSchedule{Index: idx, Seed: seed}

	g, m := gridSubstrate(cfg.Size, cfg.DisableSubstrateCache)
	w, err := mobility.Generate(g, m, mobility.Config{
		Objects:        cfg.Objects,
		MovesPerObject: cfg.MovesPerObject,
		Queries:        cfg.Queries,
		Seed:           seed,
	})
	if err != nil {
		return out, err
	}
	hs, err := hierSubstrate(cfg.Size, g, m, hier.Config{Seed: seed, SpecialParentOffset: 2}, cfg.DisableSubstrateCache)
	if err != nil {
		return out, err
	}

	// --- substrate 1: discrete-event simulator, full fault mix ---------
	eng := sim.NewEngine(0)
	ms, err := sim.NewMOT(hs, eng, sim.Config{PeriodSync: true})
	if err != nil {
		return out, err
	}
	horizon, err := sim.Schedule(ms, w, sim.DriverConfig{Diameter: m.Diameter(), Seed: seed})
	if err != nil {
		return out, err
	}
	inj := chaos.NewInjector(chaos.Config{
		Seed:        seed,
		DropRate:    cfg.DropRate,
		DelayRate:   cfg.DelayRate,
		DelayFactor: cfg.DelayFactor,
		CrashRate:   cfg.CrashRate,
		CrashSpan:   cfg.CrashSpan,
		Horizon:     horizon,
		MaxAttempts: cfg.MaxAttempts,
	}, g.N())
	eng.SetFaults(inj)
	if err := eng.Run(); err != nil {
		return out, err
	}
	// The recovery contract: after quiescence the directory must be
	// globally consistent no matter which messages the plan killed.
	if err := ms.CheckInvariants(); err != nil {
		return out, fmt.Errorf("invariants after chaos: %w", err)
	}
	out.SimTrace = inj.Trace().Render()
	out.SimMeter = ms.Meter()
	out.SimCompleted = len(ms.Results())
	out.SimLost = len(ms.Lost())

	// --- substrate 2: goroutine runtime, drop+delay with retry ---------
	// The runtime has no simulated clock, so crash windows do not apply;
	// explicit Crash/Recover is exercised by the runtime's own chaos
	// tests. Operations replay sequentially so operation numbering (and
	// with it the fault trace) is deterministic.
	rinj := chaos.NewInjector(chaos.Config{
		Seed:        seed,
		DropRate:    cfg.DropRate,
		DelayRate:   cfg.DelayRate,
		DelayFactor: cfg.DelayFactor,
		MaxAttempts: cfg.MaxAttempts,
	}, g.N())
	tr := motruntime.New(g, hs, motruntime.Options{Chaos: rinj})
	defer tr.Stop()
	err = replay(tr, w, func(err error) bool {
		var de *chaos.DeliveryError
		if errors.As(err, &de) {
			out.RunFailed++
			return true
		}
		return false
	})
	if err != nil {
		return out, err
	}
	// A failed runtime operation is rolled back, so the same contract holds.
	if err := tr.CheckInvariants(); err != nil {
		return out, fmt.Errorf("runtime invariants after chaos: %w", err)
	}
	out.RunTrace = rinj.Trace().Render()
	out.RunCost = tr.Cost()
	out.RunDelay = tr.SimulatedDelay()
	return out, nil
}

// PrintChaos renders the chaos tier outcome, one line per schedule.
func PrintChaos(w io.Writer, res *ChaosResult) {
	fmt.Fprintf(w, "chaos tier: %d schedules on %d sensors (drop=%.2f delay=%.2f crash=%.2f, %d attempts)\n",
		res.Config.Schedules, res.Config.Size,
		res.Config.DropRate, res.Config.DelayRate, res.Config.CrashRate, res.Config.MaxAttempts)
	for _, s := range res.Schedules {
		simEvents := countLines(s.SimTrace)
		runEvents := countLines(s.RunTrace)
		fmt.Fprintf(w, "  schedule %d (seed %d): sim %d faults, %d lost ops, %d queries done, recovery %.1f over %d repairs; runtime %d faults, %d failed ops, cost %.1f, delay %.1f\n",
			s.Index, s.Seed,
			simEvents, s.SimLost, s.SimCompleted, s.SimMeter.RecoveryCost, s.SimMeter.RecoveryOps,
			runEvents, s.RunFailed, s.RunCost, s.RunDelay)
	}
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}

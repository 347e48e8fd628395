package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/debruijn"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/mobility"
	"repro/internal/obs/live"
	motruntime "repro/internal/runtime"
)

// ChurnConfig parameterizes the sustained-churn tier: seeded fail/recover
// schedules interleaved with tracking operations, replayed against the
// incremental §7 repair engine, a rebuild-from-scratch baseline, a
// fault-free steady-state control, the §7 de Bruijn relabeling, and
// (unless disabled) the goroutine runtime with explicit crashes. Every
// schedule is a pure function of (BaseSeed, Size, schedule index), so the
// produced cost traces are byte-identical across runs and worker counts.
type ChurnConfig struct {
	// BaseSeed salts every schedule's stream; schedule i runs on
	// mobility.StreamSeed(BaseSeed, Size, i).
	BaseSeed int64
	// Size is the target sensor count (a near-square grid).
	Size int
	// Objects is the tracked population.
	Objects int
	// ChurnRate is the fraction of sensors failed per epoch (the paper's
	// sustained-churn regime is 1–10%); values above 0.10 are clamped.
	// Each epoch fails max(1, ChurnRate·Size) distinct sensors.
	ChurnRate float64
	// Epochs is the number of fail → operate → recover rounds.
	Epochs int
	// OpsPerEpoch is the number of tracking operations (moves and
	// queries, evenly mixed by the schedule stream) issued per epoch
	// while the epoch's sensors are down.
	OpsPerEpoch int
	// SLOGraceOps is k of the headline SLO: every operation issued at
	// least k issued-ops after a failure event must complete. Operations
	// inside the grace window may fail without violating the SLO (they
	// are masked from the cost comparison instead).
	SLOGraceOps int
	// Schedules is the number of independent churn schedules.
	Schedules int
	// Workers bounds the pool running schedules concurrently; any value
	// yields byte-identical results.
	Workers int
	// RebuildEachEvent switches the repair engine into its validation
	// mode (a from-scratch overlay rebuild per event in place of
	// hier.Repair). The golden tier pins that this flag does not change a
	// single output byte.
	RebuildEachEvent bool
	// UseOracle builds the schedules over the sub-quadratic distance
	// oracle instead of the exact metric — the only affordable substrate
	// at the 10k scale cell.
	UseOracle bool
	// DisableRuntime skips the goroutine-runtime crash replay (used at
	// scale, where spinning up one goroutine per sensor per schedule
	// dominates the measurement).
	DisableRuntime bool
	// DisableSubstrateCache makes every schedule rebuild its own grid and
	// metric instead of sharing the substrate cache. The churn engines
	// always build private hierarchies — they mutate them.
	DisableSubstrateCache bool
	// LiveTelemetry attaches a wall-clock live recorder to each
	// schedule's goroutine-runtime replay (no effect with
	// DisableRuntime) and stores the final snapshot on the schedule.
	// Diagnostics only: CostTrace and every deterministic artifact stay
	// byte-identical to a live-off run.
	LiveTelemetry bool
}

func (c *ChurnConfig) fill() {
	fillInt(&c.Size, 49)
	fillInt(&c.Objects, 4)
	if c.ChurnRate <= 0 {
		c.ChurnRate = 0.05
	}
	if c.ChurnRate > 0.10 {
		c.ChurnRate = 0.10
	}
	fillInt(&c.Epochs, 4)
	fillInt(&c.OpsPerEpoch, 24)
	if c.SLOGraceOps <= 0 {
		c.SLOGraceOps = 2
	}
	fillInt(&c.Schedules, 3)
	fillWorkers(&c.Workers)
}

// ChurnSchedule is the outcome of one seeded churn schedule.
type ChurnSchedule struct {
	Index int
	Seed  int64

	// FailEvents / RecoverEvents count liveness flips (they are equal:
	// every epoch recovers its victims).
	FailEvents    int
	RecoverEvents int

	// OpsIssued / OpsMasked partition the operation stream: an operation
	// is masked when one of its endpoints or its object's ground-truth
	// proxy is down — no regime, incremental or not, can serve it.
	OpsIssued int
	OpsMasked int

	// Relabels is the total de Bruijn relabel count the same fail/recover
	// schedule costs the §7 cluster embedding (internal/debruijn).
	Relabels int

	// Repair* are the incremental engine's recovery meters; Rebuild* the
	// same schedule on the rebuild-from-scratch baseline.
	RepairRecoveryCost  float64
	RepairRecoveryOps   int
	RebuildRecoveryCost float64
	RebuildRecoveryOps  int

	// ChurnOpCost is the issued operations' cost on the repaired-under-
	// churn directory; SteadyOpCost is the same operations on the
	// fault-free control.
	ChurnOpCost  float64
	SteadyOpCost float64

	// RunFailed counts operations the goroutine runtime — which has no
	// incremental repair; its overlay stays static while sensors crash —
	// lost to *chaos.DeliveryError under the same schedule. 0 when the
	// runtime replay is disabled.
	RunFailed int

	// Live is the runtime replay's wall-clock latency snapshot (nil
	// unless ChurnConfig.LiveTelemetry; excluded from CostTrace and all
	// golden artifacts — report renderers add latency columns from it
	// only when present).
	Live *live.Snapshot

	// CostTrace is the golden byte representation of the schedule: one
	// line per epoch with the victims, availability counts, and meters.
	CostTrace string
}

// Availability is the fraction of attempted operations that were
// servable during churn.
func (s *ChurnSchedule) Availability() float64 {
	total := s.OpsIssued + s.OpsMasked
	if total == 0 {
		return 1
	}
	return float64(s.OpsIssued) / float64(total)
}

// CostRatio is the steady-state cost ratio: issued-operation cost under
// churn over the same operations fault-free.
func (s *ChurnSchedule) CostRatio() float64 {
	if s.SteadyOpCost == 0 {
		return 1
	}
	return s.ChurnOpCost / s.SteadyOpCost
}

// RecoveryRatio is incremental repair's recovery cost over the
// rebuild-from-scratch baseline's — the tentpole's headline number.
func (s *ChurnSchedule) RecoveryRatio() float64 {
	if s.RebuildRecoveryCost == 0 {
		return 1
	}
	return s.RepairRecoveryCost / s.RebuildRecoveryCost
}

// ChurnResult is the full churn tier outcome.
type ChurnResult struct {
	Config    ChurnConfig
	Schedules []ChurnSchedule
}

// RunChurn executes cfg.Schedules seeded churn schedules on a worker pool
// and returns their outcomes in schedule order.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg.fill()
	scheds, err := orderedPool(cfg.Workers, cfg.Schedules, func(i int) (ChurnSchedule, error) {
		sched, err := runChurnSchedule(cfg, i)
		if err != nil {
			return sched, fmt.Errorf("experiments: churn schedule %d: %w", i, err)
		}
		return sched, nil
	})
	if err != nil {
		return nil, err
	}
	return &ChurnResult{Config: cfg, Schedules: scheds}, nil
}

// churnSubstrate resolves a schedule's grid and distance oracle.
func churnSubstrate(cfg ChurnConfig) (*graph.Graph, graph.DistanceOracle) {
	if cfg.UseOracle {
		if cfg.DisableSubstrateCache {
			g := graph.NearSquareGrid(cfg.Size)
			return g, graph.NewOracle(g, graph.OracleConfig{})
		}
		g, o := defaultSubstrates.GridOracle(cfg.Size)
		return g, o
	}
	g, m := gridSubstrate(cfg.Size, cfg.DisableSubstrateCache)
	return g, m
}

// churnOp is one recorded event of a schedule, replayed verbatim on the
// goroutine runtime.
type churnOp struct {
	kind byte // 'f' fail, 'r' recover, 'm' move, 'q' query
	node graph.NodeID
	obj  core.ObjectID
}

// opCost is the tracking-operation share of a meter (recovery and
// publish traffic are accounted separately).
func opCost(m core.CostMeter) float64 { return m.MaintCost + m.QueryCost }

// runChurnSchedule runs one seeded churn schedule: the incremental repair
// engine, the rebuild baseline, the fault-free control, and the de Bruijn
// relabeling all see the same event stream.
func runChurnSchedule(cfg ChurnConfig, idx int) (ChurnSchedule, error) {
	seed := mobility.StreamSeed(cfg.BaseSeed, cfg.Size, idx)
	out := ChurnSchedule{Index: idx, Seed: seed}
	rng := rand.New(rand.NewSource(seed))

	g, dm := churnSubstrate(cfg)
	hcfg := hier.Config{Seed: seed, SpecialParentOffset: 2}

	// The two engines own and mutate their hierarchies, so they never
	// share the substrate cache. ChurnThreshold 1 keeps the repair engine
	// incremental for the whole schedule; a vanishing threshold turns the
	// baseline into a rebuild per fail event.
	repairEng, err := dynamics.New(g, dm, dynamics.Config{
		Hier: hcfg, ChurnThreshold: 1, RebuildEachEvent: cfg.RebuildEachEvent,
	})
	if err != nil {
		return out, err
	}
	rebuildEng, err := dynamics.New(g, dm, dynamics.Config{Hier: hcfg, ChurnThreshold: 1e-9})
	if err != nil {
		return out, err
	}
	// The steady control never churns; its hierarchy is immutable and can
	// come from the shared cache.
	var steadyHS *hier.Hierarchy
	if cfg.DisableSubstrateCache {
		steadyHS, err = hier.BuildExcluding(g, dm, hcfg, nil)
	} else if cfg.UseOracle {
		steadyHS, err = defaultSubstrates.GridOracleHierarchy(cfg.Size, hcfg)
	} else {
		steadyHS, err = defaultSubstrates.GridHierarchy(cfg.Size, hcfg)
	}
	if err != nil {
		return out, err
	}
	steady := core.New(steadyHS, core.Config{})

	locs := make([]graph.NodeID, cfg.Objects)
	for o := range locs {
		locs[o] = graph.NodeID(rng.Intn(g.N()))
		for _, dir := range []*core.Directory{repairEng.Directory(), rebuildEng.Directory(), steady} {
			if err := dir.Publish(core.ObjectID(o), locs[o]); err != nil {
				return out, err
			}
		}
	}
	initial := append([]graph.NodeID(nil), locs...)

	members := make([]graph.NodeID, g.N())
	for i := range members {
		members[i] = graph.NodeID(i)
	}
	emb := debruijn.New(members)
	failed := make(map[graph.NodeID]bool)
	var events []churnOp
	var trace strings.Builder
	victimsPerEpoch := int(cfg.ChurnRate*float64(g.N()) + 0.5)
	if victimsPerEpoch < 1 {
		victimsPerEpoch = 1
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		issuedBefore, maskedBefore := out.OpsIssued, out.OpsMasked
		churnBefore := opCost(repairEng.Directory().Meter())
		steadyBefore := opCost(steady.Meter())

		// --- fail this epoch's victims --------------------------------
		victims := make([]graph.NodeID, 0, victimsPerEpoch)
		for len(victims) < victimsPerEpoch {
			v := graph.NodeID(rng.Intn(g.N()))
			if failed[v] {
				continue
			}
			failed[v] = true
			victims = append(victims, v)
			if err := repairEng.Fail(v); err != nil {
				return out, err
			}
			if err := rebuildEng.Fail(v); err != nil {
				return out, err
			}
			upd, err := emb.Leave(v)
			if err != nil {
				return out, err
			}
			out.Relabels += upd
			out.FailEvents++
			events = append(events, churnOp{kind: 'f', node: v})
		}
		opsSinceFail := 0

		// --- operate while down ---------------------------------------
		for i := 0; i < cfg.OpsPerEpoch; i++ {
			var op churnOp
			if rng.Intn(2) == 0 { // move
				o := rng.Intn(len(locs))
				nbrs := g.NeighborIDs(locs[o])
				op = churnOp{kind: 'm', obj: core.ObjectID(o), node: nbrs[rng.Intn(len(nbrs))]}
			} else { // query
				op = churnOp{kind: 'q', obj: core.ObjectID(rng.Intn(len(locs))), node: graph.NodeID(rng.Intn(g.N()))}
			}
			// Mask operations no regime can serve: a down endpoint or a
			// down ground-truth proxy (the rebuild baseline parks exactly
			// those objects).
			if failed[op.node] || failed[locs[op.obj]] {
				out.OpsMasked++
				continue
			}
			err := issueOp(repairEng.Directory(), op)
			opsSinceFail++
			if err != nil {
				if opsSinceFail > cfg.SLOGraceOps {
					return out, fmt.Errorf("SLO violation: epoch %d op %d (%d past failure, grace %d): %w",
						epoch, i, opsSinceFail, cfg.SLOGraceOps, err)
				}
				out.OpsMasked++
				continue
			}
			if err := issueOp(rebuildEng.Directory(), op); err != nil {
				return out, fmt.Errorf("rebuild baseline diverged on epoch %d op %d: %w", epoch, i, err)
			}
			if err := issueOp(steady, op); err != nil {
				return out, fmt.Errorf("steady control failed epoch %d op %d: %w", epoch, i, err)
			}
			if op.kind == 'm' {
				locs[op.obj] = op.node
			}
			out.OpsIssued++
			events = append(events, op)
		}

		// --- recover and assert quiescence ----------------------------
		for _, v := range victims {
			delete(failed, v)
			if err := repairEng.Recover(v); err != nil {
				return out, err
			}
			if err := rebuildEng.Recover(v); err != nil {
				return out, err
			}
			upd, err := emb.Join(v)
			if err != nil {
				return out, err
			}
			out.Relabels += upd
			out.RecoverEvents++
			events = append(events, churnOp{kind: 'r', node: v})
		}
		if err := repairEng.Directory().CheckInvariants(); err != nil {
			return out, fmt.Errorf("repair engine invariants after epoch %d: %w", epoch, err)
		}
		if err := rebuildEng.Directory().CheckInvariants(); err != nil {
			return out, fmt.Errorf("rebuild baseline invariants after epoch %d: %w", epoch, err)
		}
		if stale := repairEng.Directory().StaleObjects(func(graph.NodeID) bool { return false }); len(stale) != 0 {
			return out, fmt.Errorf("stale objects at quiescence after epoch %d: %v", epoch, stale)
		}

		rm := repairEng.Directory().Meter()
		fmt.Fprintf(&trace, "epoch %d: fail %v | issued %d masked %d | churn %.2f steady %.2f | repair recovery %.2f/%d | relabels %d\n",
			epoch, victims,
			out.OpsIssued-issuedBefore, out.OpsMasked-maskedBefore,
			opCost(rm)-churnBefore, opCost(steady.Meter())-steadyBefore,
			rm.RecoveryCost, rm.RecoveryOps, out.Relabels)
	}

	rm := repairEng.Directory().Meter()
	bm := rebuildEng.Directory().Meter()
	out.RepairRecoveryCost, out.RepairRecoveryOps = rm.RecoveryCost, rm.RecoveryOps
	out.RebuildRecoveryCost, out.RebuildRecoveryOps = bm.RecoveryCost, bm.RecoveryOps
	out.ChurnOpCost = opCost(rm)
	out.SteadyOpCost = opCost(steady.Meter())
	out.CostTrace = trace.String()

	if !cfg.DisableRuntime {
		var lrec *live.Recorder
		if cfg.LiveTelemetry {
			lrec = live.New(fmt.Sprintf("churn-%d", out.Index), live.Config{Seed: out.Seed})
		}
		failedOps, err := replayChurnOnRuntime(g, steadyHS, initial, events, lrec)
		if err != nil {
			return out, err
		}
		out.RunFailed = failedOps
		if lrec != nil {
			snap := lrec.Snapshot()
			out.Live = &snap
		}
	}
	return out, nil
}

// issueOp applies one recorded operation to a directory.
func issueOp(dir *core.Directory, op churnOp) error {
	switch op.kind {
	case 'm':
		return dir.Move(op.obj, op.node)
	case 'q':
		_, _, err := dir.Query(op.node, op.obj)
		return err
	}
	return fmt.Errorf("experiments: unknown churn op %q", op.kind)
}

// replayChurnOnRuntime replays the recorded event stream on the goroutine
// runtime with explicit crashes. The runtime's overlay is static — it has
// no incremental repair — so operations whose trails route through downed
// sensors exhaust their retry budget and fail with *chaos.DeliveryError,
// and a Move that loses messages mid-trail leaves the object's directory
// state permanently inconsistent, failing its later operations outright.
// Every failed operation counts as lost: the total is the measured price
// of not repairing. The pre-churn publishes run before any crash and must
// succeed.
func replayChurnOnRuntime(g *graph.Graph, hs *hier.Hierarchy, locs []graph.NodeID, events []churnOp, lrec *live.Recorder) (int, error) {
	inj := chaos.NewInjector(chaos.Config{Seed: 1, MaxAttempts: 4}, g.N())
	tr := motruntime.New(g, hs, motruntime.Options{Chaos: inj, Live: lrec})
	defer tr.Stop()
	failedOps := 0
	for o, at := range locs {
		if err := tr.Publish(core.ObjectID(o), at); err != nil {
			return failedOps, err
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case 'f':
			tr.Crash(ev.node)
		case 'r':
			tr.Recover(ev.node)
		case 'm':
			if err := tr.Move(ev.obj, ev.node); err != nil {
				failedOps++
			}
		case 'q':
			if _, _, err := tr.Query(ev.node, ev.obj); err != nil {
				failedOps++
			}
		}
	}
	return failedOps, nil
}

// PrintChurn renders the churn tier outcome, one line per schedule.
func PrintChurn(w io.Writer, res *ChurnResult) {
	fmt.Fprintf(w, "churn tier: %d schedules on %d sensors (%.0f%% churn/epoch, %d epochs x %d ops, grace %d)\n",
		res.Config.Schedules, res.Config.Size,
		res.Config.ChurnRate*100, res.Config.Epochs, res.Config.OpsPerEpoch, res.Config.SLOGraceOps)
	for i := range res.Schedules {
		s := &res.Schedules[i]
		fmt.Fprintf(w, "  schedule %d (seed %d): %d fail/%d recover, availability %.3f, cost ratio %.3f, recovery %.1f/%d vs rebuild %.1f/%d (ratio %.3f), %d relabels, runtime lost %d\n",
			s.Index, s.Seed, s.FailEvents, s.RecoverEvents,
			s.Availability(), s.CostRatio(),
			s.RepairRecoveryCost, s.RepairRecoveryOps,
			s.RebuildRecoveryCost, s.RebuildRecoveryOps, s.RecoveryRatio(),
			s.Relabels, s.RunFailed)
	}
}

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
	"repro/internal/stats"
	"repro/internal/treedir"
)

// LoadConfig parameterizes a load/node comparison (Figs. 8–11).
type LoadConfig struct {
	// Nodes is the network size (1024 in the paper).
	Nodes int
	// Objects is m (100).
	Objects int
	// MovesPerObject performed before measuring; 0 measures right after
	// initialization (Figs. 8/10), 10 matches Figs. 9/11.
	MovesPerObject int
	// Baseline is AlgSTUN or AlgZDAT.
	Baseline string
	// Seed drives placement and movement.
	Seed int64
	// HistogramMax is the largest per-node load bucket reported.
	HistogramMax int
	// ZoneDepth is Z-DAT's quadrant depth.
	ZoneDepth int
	// Workers bounds the harness's concurrency. The MOT and baseline
	// replays are independent (they share only the read-only workload),
	// so Workers>1 runs them on separate goroutines; the result is
	// identical either way. Zero or negative means runtime.GOMAXPROCS.
	Workers int
	// DisableSubstrateCache rebuilds the grid, metric, and hierarchy for
	// this run instead of sharing the per-topology substrate cache.
	DisableSubstrateCache bool
}

func (c *LoadConfig) fill() {
	fillInt(&c.Nodes, DefaultLoadNodes)
	fillInt(&c.Objects, DefaultObjects)
	if c.Baseline == "" {
		c.Baseline = AlgSTUN
	}
	fillInt(&c.HistogramMax, DefaultHistogramMax)
	fillInt(&c.ZoneDepth, DefaultZoneDepth)
	fillWorkers(&c.Workers)
}

// LoadResult compares per-node load distributions.
type LoadResult struct {
	Config       LoadConfig
	MOT          stats.LoadStats
	Baseline     stats.LoadStats
	MOTLoad      []int
	BaselineLoad []int
}

// RunLoad reproduces the load/node comparisons: MOT with §5 load balancing
// against a baseline, measured after initialization or after a burst of
// maintenance operations. The paper's headline is the count of nodes with
// load > 10 (zero for MOT, positive for STUN and Z-DAT).
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg.fill()
	g, m := gridSubstrate(cfg.Nodes, cfg.DisableSubstrateCache)
	w, err := mobility.Generate(g, m, mobility.Config{
		Objects:        cfg.Objects,
		MovesPerObject: cfg.MovesPerObject,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rates := w.DetectionRates(g)

	// The two sides only read g, m, w, and rates, so with Workers>1 they
	// run concurrently; each side's load vector depends on nothing but
	// its own replay, so the result is the same either way.
	motSide := func() ([]int, error) {
		hs, err := hierSubstrate(cfg.Nodes, g, m, hier.Config{Seed: cfg.Seed, SpecialParentOffset: 2}, cfg.DisableSubstrateCache)
		if err != nil {
			return nil, err
		}
		mot := core.New(hs, core.Config{Placement: lb.New(hs)})
		for o, at := range w.Initial {
			if err := mot.Publish(core.ObjectID(o), at); err != nil {
				return nil, err
			}
		}
		for _, mv := range w.Moves {
			if err := mot.Move(mv.Object, mv.To); err != nil {
				return nil, err
			}
		}
		return mot.LoadByNode(g.N()), nil
	}
	baseSide := func() ([]int, error) {
		t, tc, err := baselineTree(cfg.Baseline, g, m, rates, cfg.ZoneDepth)
		if err != nil {
			return nil, err
		}
		base, err := treedir.New(t, m, tc)
		if err != nil {
			return nil, err
		}
		for o, at := range w.Initial {
			if err := base.Publish(core.ObjectID(o), at); err != nil {
				return nil, err
			}
		}
		for _, mv := range w.Moves {
			if err := base.Move(mv.Object, mv.To); err != nil {
				return nil, err
			}
		}
		return base.LoadByNode(g.N()), nil
	}
	loads, err := orderedPool(cfg.Workers, 2, func(side int) ([]int, error) {
		if side == 0 {
			return motSide()
		}
		return baseSide()
	})
	if err != nil {
		return nil, err
	}
	motLoad, baseLoad := loads[0], loads[1]

	return &LoadResult{
		Config:       cfg,
		MOT:          stats.SummarizeLoad(motLoad, cfg.HistogramMax),
		Baseline:     stats.SummarizeLoad(baseLoad, cfg.HistogramMax),
		MOTLoad:      motLoad,
		BaselineLoad: baseLoad,
	}, nil
}

// String renders the headline comparison.
func (r *LoadResult) String() string {
	return fmt.Sprintf("MOT: max=%d nodes>10=%d mean=%.2f | %s: max=%d nodes>10=%d mean=%.2f",
		r.MOT.Max, r.MOT.AboveTen, r.MOT.Mean,
		r.Config.Baseline, r.Baseline.Max, r.Baseline.AboveTen, r.Baseline.Mean)
}

package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
)

// ScaleConfig parameterizes the large-network cost-ratio sweep: MOT-only
// cells over near-square grids at 10k+ nodes, running on the
// sub-quadratic distance oracle instead of the exact metric. The
// traffic-aware baselines (STUN, Z-DAT) are excluded by design — their
// medoid and quadrant constructions are inherently quadratic, which is
// exactly the wall this harness exists to scale past.
type ScaleConfig struct {
	// Sizes are target node counts; each becomes a near-square grid.
	// Empty defaults to one 10 000-node cell.
	Sizes []int
	// Objects, MovesPerObject, Queries size the replayed workload; the
	// defaults are deliberately small (the point of a scale cell is the
	// build and per-operation cost at large n, not workload volume).
	Objects        int
	MovesPerObject int
	Queries        int
	// QueryRadius localizes queries exactly as in CostRatioConfig.
	QueryRadius float64
	// Seeds is the number of independent repetitions averaged.
	Seeds int
	// BaseSeed salts every cell's PRNG stream (see CostRatioConfig).
	BaseSeed int64
	// Workers bounds the cell worker pool; results are byte-identical for
	// every value.
	Workers int
	// OracleMinN is the fallback threshold: cells with n below it run on
	// the exact frozen metric — the regime where exactness is cheap —
	// making small-n scale sweeps byte-identical to exact mode (the
	// golden fallback contract). Zero defaults to 2048.
	OracleMinN int
	// ForceExact runs every size on the exact metric regardless of
	// OracleMinN (golden tests compare this against oracle mode).
	ForceExact bool
	// ExactSampleEvery enables sampled exact re-metering in the MOT
	// directory (core.Config.ExactSampleEvery): zero defaults to 16,
	// negative disables sampling.
	ExactSampleEvery int
	// LoadBalance enables the §5 hashed-cluster placement.
	LoadBalance bool
	// UseParentSets enables §3.1 parent-set probing.
	UseParentSets bool
	// DisableSubstrateCache rebuilds per-cell substrates (see
	// CostRatioConfig; output is byte-identical either way).
	DisableSubstrateCache bool
}

func (c *ScaleConfig) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{DefaultScaleNodes}
	}
	fillInt(&c.Objects, DefaultScaleObjects)
	fillInt(&c.MovesPerObject, DefaultScaleMoves)
	fillInt(&c.Queries, DefaultScaleQueries)
	fillInt(&c.Seeds, 1)
	fillInt(&c.OracleMinN, DefaultOracleMinN)
	if c.ExactSampleEvery == 0 {
		c.ExactSampleEvery = DefaultExactSampleEvery
	}
	fillWorkers(&c.Workers)
}

// ScaleResult holds the per-size outcome of a scale sweep, averaged over
// seeds. Maintenance/Query are the metered (oracle-estimated in oracle
// mode) aggregate ratios; SampledMaint/SampledQuery are the exact ratios
// over the re-measured operation sample, and Overestimate is the factor
// by which the oracle's metered distance terms exceeded their exact
// re-measurements (1 = exact, bounded by Stretch).
type ScaleResult struct {
	Sizes      []int
	OracleMode []bool    // per size: ran on the sketch oracle
	Stretch    []float64 // oracle stretch bound (1 in exact mode)

	Maintenance  []float64
	Query        []float64
	SampledMaint []float64
	SampledQuery []float64
	Overestimate []float64
	SampledOps   []float64 // re-measured operations per cell
}

type scaleCell struct {
	si      int
	seedIdx int
}

// RunScale executes the scale sweep. Cells run on cfg.Workers goroutines
// and merge in (size, seedIndex) order, so output is byte-identical for
// every worker count; in oracle mode no cell ever materializes an n×n
// distance table (pinned by TestScaleOracleNoFlatTable).
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg.fill()
	res := &ScaleResult{
		Sizes:        cfg.Sizes,
		OracleMode:   make([]bool, len(cfg.Sizes)),
		Stretch:      make([]float64, len(cfg.Sizes)),
		Maintenance:  make([]float64, len(cfg.Sizes)),
		Query:        make([]float64, len(cfg.Sizes)),
		SampledMaint: make([]float64, len(cfg.Sizes)),
		SampledQuery: make([]float64, len(cfg.Sizes)),
		Overestimate: make([]float64, len(cfg.Sizes)),
		SampledOps:   make([]float64, len(cfg.Sizes)),
	}

	cells := make([]scaleCell, 0, len(cfg.Sizes)*cfg.Seeds)
	for si := range cfg.Sizes {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, scaleCell{si: si, seedIdx: seed})
		}
	}

	type cellOut struct {
		meter   core.CostMeter
		stretch float64
		oracle  bool
	}
	outs, err := orderedPool(cfg.Workers, len(cells), func(ci int) (cellOut, error) {
		c := cells[ci]
		n := cfg.Sizes[c.si]
		meter, stretch, oracle, err := runScaleCell(cfg, n, mobility.StreamSeed(cfg.BaseSeed, n, c.seedIdx))
		if err != nil {
			return cellOut{}, fmt.Errorf("experiments: scale size %d seed %d: %w", n, c.seedIdx, err)
		}
		return cellOut{meter: meter, stretch: stretch, oracle: oracle}, nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic merge in (size, seedIndex) order.
	for ci, c := range cells {
		o := outs[ci]
		res.OracleMode[c.si] = o.oracle
		res.Stretch[c.si] += o.stretch / float64(cfg.Seeds)
		res.Maintenance[c.si] += o.meter.MaintRatio() / float64(cfg.Seeds)
		res.Query[c.si] += o.meter.QueryRatio() / float64(cfg.Seeds)
		res.SampledMaint[c.si] += o.meter.SampledMaintRatio() / float64(cfg.Seeds)
		res.SampledQuery[c.si] += o.meter.SampledQueryRatio() / float64(cfg.Seeds)
		res.Overestimate[c.si] += o.meter.SampledOverestimate() / float64(cfg.Seeds)
		res.SampledOps[c.si] += float64(o.meter.SampledMaintOps+o.meter.SampledQueryOps) / float64(cfg.Seeds)
	}
	return res, nil
}

// scaleSubstrate resolves one scale cell's grid and distance oracle:
// the sketch oracle at or above OracleMinN (unless ForceExact), the
// exact frozen metric below it — the documented fallback contract.
func scaleSubstrate(cfg ScaleConfig, n int) (*graph.Graph, graph.DistanceOracle, bool) {
	oracleMode := !cfg.ForceExact && n >= cfg.OracleMinN
	if !oracleMode {
		g, m := gridSubstrate(n, cfg.DisableSubstrateCache)
		return g, m, false
	}
	if cfg.DisableSubstrateCache {
		g := graph.NearSquareGrid(n)
		return g, graph.NewOracle(g, graph.OracleConfig{}), true
	}
	g, o := defaultSubstrates.GridOracle(n)
	return g, o, true
}

// runScaleCell runs MOT on one grid/seed and returns its meter, the
// substrate's stretch bound, and whether the cell ran in oracle mode.
func runScaleCell(cfg ScaleConfig, n int, seed int64) (core.CostMeter, float64, bool, error) {
	g, dm, oracleMode := scaleSubstrate(cfg, n)
	w, err := mobility.Generate(g, dm, mobility.Config{
		Objects:        cfg.Objects,
		MovesPerObject: cfg.MovesPerObject,
		Queries:        cfg.Queries,
		QueryRadius:    cfg.QueryRadius,
		Seed:           seed,
	})
	if err != nil {
		return core.CostMeter{}, 0, false, err
	}

	// SpecialParentOffset is explicit so Build never needs the doubling
	// estimate (whose ball sweep is the one query pattern that is not
	// output-sensitive at 10k+ nodes).
	hcfg := hier.Config{Seed: seed, SpecialParentOffset: 2, UseParentSets: cfg.UseParentSets}
	var hs *hier.Hierarchy
	switch {
	case cfg.DisableSubstrateCache:
		hs, err = hier.Build(g, dm, hcfg)
	case oracleMode:
		hs, err = defaultSubstrates.GridOracleHierarchy(n, hcfg)
	default:
		hs, err = defaultSubstrates.GridHierarchy(n, hcfg)
	}
	if err != nil {
		return core.CostMeter{}, 0, false, err
	}

	dcfg := core.Config{ExactSampleSeed: seed}
	if cfg.ExactSampleEvery > 0 {
		dcfg.ExactSampleEvery = cfg.ExactSampleEvery
	}
	if cfg.LoadBalance {
		dcfg.Placement = lb.New(hs)
	}
	dir := core.New(hs, dcfg)
	for o, at := range w.Initial {
		if err := dir.Publish(core.ObjectID(o), at); err != nil {
			return core.CostMeter{}, 0, false, err
		}
	}
	for _, mv := range w.Moves {
		if err := dir.Move(mv.Object, mv.To); err != nil {
			return core.CostMeter{}, 0, false, err
		}
	}
	for _, q := range w.Queries {
		if _, _, err := dir.Query(q.From, q.Object); err != nil {
			return core.CostMeter{}, 0, false, err
		}
	}
	return dir.Meter(), dm.Stretch(), oracleMode, nil
}

// PrintScale renders a scale sweep: per size, the substrate mode and
// stretch bound, the metered ratios, and the sampled exact audit.
func PrintScale(w io.Writer, res *ScaleResult) {
	fmt.Fprintf(w, "MOT scale sweep (oracle substrate)\n")
	fmt.Fprintf(w, "%8s %-7s %8s %8s %8s %12s %12s %10s %10s\n",
		"nodes", "mode", "stretch", "maint", "query", "maint(exact)", "query(exact)", "est/exact", "sampled")
	for i, n := range res.Sizes {
		mode := "exact"
		if res.OracleMode[i] {
			mode = "oracle"
		}
		fmt.Fprintf(w, "%8d %-7s %8.3f %8.3f %8.3f %12.3f %12.3f %10.4f %10.1f\n",
			n, mode, res.Stretch[i], res.Maintenance[i], res.Query[i],
			res.SampledMaint[i], res.SampledQuery[i], res.Overestimate[i], res.SampledOps[i])
	}
}

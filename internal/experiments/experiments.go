// Package experiments contains the harnesses that regenerate every figure
// of the paper's evaluation (§8, Figs. 4–15): maintenance and query cost
// ratios for MOT, STUN, Z-DAT, and Z-DAT with shortcuts over grid networks
// of 10–1024 nodes with 100 and 1000 objects, in one-by-one and concurrent
// executions, plus the per-node load comparisons.
//
// Each harness returns structured results; the Print helpers render the
// same rows/series the paper plots. DESIGN.md maps figure numbers to
// harness configurations, and cmd/motsim drives them from the command line.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lb"
	"repro/internal/mobility"
	"repro/internal/stun"
	"repro/internal/treedir"
	"repro/internal/zdat"
)

// Algorithm names, in the order the figures list them.
const (
	AlgMOT    = "MOT"
	AlgSTUN   = "STUN"
	AlgZDAT   = "Z-DAT"
	AlgZDATSC = "Z-DAT+shortcuts"
)

// Algorithms is the comparison set of the paper's figures.
var Algorithms = []string{AlgMOT, AlgSTUN, AlgZDAT, AlgZDATSC}

// CostRatioConfig parameterizes a cost-ratio sweep (Figs. 4–7, 12–15).
type CostRatioConfig struct {
	// Sizes are target node counts; each becomes a near-square grid.
	Sizes []int
	// Objects is m (100 or 1000 in the paper).
	Objects int
	// MovesPerObject is the maintenance operations per object (1000).
	MovesPerObject int
	// Queries is the number of query operations issued after (one-by-one)
	// or during (concurrent) the maintenance workload.
	Queries int
	// QueryRadius localizes queries: each requester is sampled within
	// this distance of the queried object's final position (0 = uniform
	// over all sensors, the paper's setting). Local queries are the
	// regime where distance-sensitive tracking shines.
	QueryRadius float64
	// Seeds is the number of independent repetitions averaged (5).
	Seeds int
	// Concurrent selects the discrete-event concurrent execution
	// (Figs. 12–15) instead of one-by-one (Figs. 4–7).
	Concurrent bool
	// Concurrency is the per-object burst size in concurrent mode (10).
	Concurrency int
	// LoadBalance runs MOT with the §5 hashed-cluster placement (the
	// paper's MOT variant; its maintenance ratio is slightly above
	// Z-DAT's because of the de Bruijn routing surcharge).
	LoadBalance bool
	// UseParentSets enables the §3.1 parent-set probing in one-by-one
	// runs (the concurrent simulator always uses the simple single-parent
	// form of Algorithm 1).
	UseParentSets bool
	// ZoneDepth is Z-DAT's quadrant depth.
	ZoneDepth int
	// BaseSeed salts every cell's PRNG stream: cell (size, seedIndex)
	// runs on mobility.StreamSeed(BaseSeed, size, seedIndex). Zero is a
	// valid base (the default sweep).
	BaseSeed int64
	// Workers bounds the worker pool running sweep cells concurrently.
	// Zero or negative means one worker per CPU (runtime.GOMAXPROCS).
	// Any value yields byte-identical results: cells share only immutable
	// substrates and are merged in (size, seedIndex) order regardless of
	// scheduling.
	Workers int
	// DisableSubstrateCache makes every cell rebuild its own grid, metric,
	// and hierarchy instead of sharing the per-topology substrate cache.
	// Output is byte-identical either way (the cache holds only immutable
	// values); this exists for benchmarking the cache's win and as an
	// escape hatch.
	DisableSubstrateCache bool
}

func (c *CostRatioConfig) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = append([]int(nil), DefaultSizes...)
	}
	fillInt(&c.Objects, DefaultObjects)
	fillInt(&c.MovesPerObject, DefaultMovesPerObject)
	fillInt(&c.Queries, c.Objects)
	fillInt(&c.Seeds, DefaultSeeds)
	fillInt(&c.Concurrency, DefaultConcurrency)
	fillInt(&c.ZoneDepth, DefaultZoneDepth)
	fillWorkers(&c.Workers)
}

// CostRatioResult holds cost ratios per algorithm per network size.
// Maintenance and Query are aggregate ratios (total cost / total optimal);
// MaintenanceMean and QueryMean average the per-operation ratios, which is
// how the paper's figures weight operations (each query counts equally, so
// a distance-insensitive algorithm's overpriced short-range queries show).
type CostRatioResult struct {
	Sizes           []int
	Algorithms      []string
	Maintenance     [][]float64
	Query           [][]float64
	MaintenanceMean [][]float64
	QueryMean       [][]float64

	// Auxiliary traffic, averaged over seeds like the ratios above, so no
	// metered cost is droppable in reports: SDL registration traffic,
	// the §5 de Bruijn routing surcharge, and §7 recovery cost and
	// operation counts (all zero for the fault-free baselines).
	Special     [][]float64
	LBRoute     [][]float64
	Recovery    [][]float64
	RecoveryOps [][]float64
}

// sweepCell is one independent unit of a cost-ratio sweep: a (size,
// seedIndex) pair. Cells share nothing — each builds its own grid,
// metric, workload, and directories from its own seed stream — so they
// can run on any worker in any order.
type sweepCell struct {
	si      int // index into cfg.Sizes
	seedIdx int
}

// RunCostRatio executes the sweep and returns mean maintenance and query
// cost ratios — the data behind Figs. 4–7 (one-by-one) and 12–15
// (concurrent). Cells run on cfg.Workers goroutines; the per-cell meters
// are merged in (size, seedIndex) order afterwards, so the result is
// byte-identical for every worker count.
func RunCostRatio(cfg CostRatioConfig) (*CostRatioResult, error) {
	cfg.fill()
	res := &CostRatioResult{Sizes: cfg.Sizes, Algorithms: Algorithms}
	res.Maintenance = make([][]float64, len(Algorithms))
	res.Query = make([][]float64, len(Algorithms))
	res.MaintenanceMean = make([][]float64, len(Algorithms))
	res.QueryMean = make([][]float64, len(Algorithms))
	res.Special = make([][]float64, len(Algorithms))
	res.LBRoute = make([][]float64, len(Algorithms))
	res.Recovery = make([][]float64, len(Algorithms))
	res.RecoveryOps = make([][]float64, len(Algorithms))
	for a := range Algorithms {
		res.Maintenance[a] = make([]float64, len(cfg.Sizes))
		res.Query[a] = make([]float64, len(cfg.Sizes))
		res.MaintenanceMean[a] = make([]float64, len(cfg.Sizes))
		res.QueryMean[a] = make([]float64, len(cfg.Sizes))
		res.Special[a] = make([]float64, len(cfg.Sizes))
		res.LBRoute[a] = make([]float64, len(cfg.Sizes))
		res.Recovery[a] = make([]float64, len(cfg.Sizes))
		res.RecoveryOps[a] = make([]float64, len(cfg.Sizes))
	}

	cells := make([]sweepCell, 0, len(cfg.Sizes)*cfg.Seeds)
	for si := range cfg.Sizes {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, sweepCell{si: si, seedIdx: seed})
		}
	}
	meters, err := runCells(cfg, cells)
	if err != nil {
		return nil, err
	}

	// Deterministic merge: fold per-cell meters in (size, seedIndex)
	// order. Scheduling never touches the sum order, so Workers=N output
	// is byte-identical to Workers=1.
	for ci, c := range cells {
		for a := range Algorithms {
			res.Maintenance[a][c.si] += meters[ci][a].MaintRatio() / float64(cfg.Seeds)
			res.Query[a][c.si] += meters[ci][a].QueryRatio() / float64(cfg.Seeds)
			res.MaintenanceMean[a][c.si] += meters[ci][a].MaintMeanRatio() / float64(cfg.Seeds)
			res.QueryMean[a][c.si] += meters[ci][a].QueryMeanRatio() / float64(cfg.Seeds)
			res.Special[a][c.si] += meters[ci][a].SpecialCost / float64(cfg.Seeds)
			res.LBRoute[a][c.si] += meters[ci][a].LBRouteCost / float64(cfg.Seeds)
			res.Recovery[a][c.si] += meters[ci][a].RecoveryCost / float64(cfg.Seeds)
			res.RecoveryOps[a][c.si] += float64(meters[ci][a].RecoveryOps) / float64(cfg.Seeds)
		}
	}
	return res, nil
}

// runCells executes sweep cells on the ordered pool and returns the
// per-cell meters indexed like cells.
func runCells(cfg CostRatioConfig, cells []sweepCell) ([][]core.CostMeter, error) {
	return orderedPool(cfg.Workers, len(cells), func(ci int) ([]core.CostMeter, error) {
		c := cells[ci]
		n := cfg.Sizes[c.si]
		ms, err := runOne(cfg, n, mobility.StreamSeed(cfg.BaseSeed, n, c.seedIdx))
		if err != nil {
			return nil, fmt.Errorf("experiments: size %d seed %d: %w", n, c.seedIdx, err)
		}
		return ms, nil
	})
}

// runOne runs all four algorithms on one grid/seed and returns their
// meters in Algorithms order. seed is the cell's derived stream seed; it
// drives workload generation, hierarchy construction, and the concurrent
// scheduler, so the cell is fully reproducible in isolation.
func runOne(cfg CostRatioConfig, n int, seed int64) ([]core.CostMeter, error) {
	g, m := gridSubstrate(n, cfg.DisableSubstrateCache)
	w, err := mobility.Generate(g, m, mobility.Config{
		Objects:        cfg.Objects,
		MovesPerObject: cfg.MovesPerObject,
		Queries:        cfg.Queries,
		QueryRadius:    cfg.QueryRadius,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	rates := w.DetectionRates(g)
	if cfg.Concurrent {
		return runConcurrentAll(cfg, n, g, m, w, rates, seed)
	}
	return runOneByOneAll(cfg, n, g, m, w, rates, seed)
}

// runOneByOneAll replays the workload on the four directories sequentially.
func runOneByOneAll(cfg CostRatioConfig, n int, g *graph.Graph, m *graph.Metric, w *mobility.Workload, rates map[mobility.EdgeKey]float64, seed int64) ([]core.CostMeter, error) {
	hs, err := hierSubstrate(n, g, m, hier.Config{Seed: seed, SpecialParentOffset: 2, UseParentSets: cfg.UseParentSets}, cfg.DisableSubstrateCache)
	if err != nil {
		return nil, err
	}
	dcfg := core.Config{}
	if cfg.LoadBalance {
		dcfg.Placement = lb.New(hs)
	}
	mot := core.New(hs, dcfg)

	stunDir, err := stun.New(g, m, rates)
	if err != nil {
		return nil, err
	}
	zdatDir, err := zdat.New(g, m, rates, zdat.Config{ZoneDepth: cfg.ZoneDepth, Sink: graph.Undefined})
	if err != nil {
		return nil, err
	}
	zdatSC, err := zdat.New(g, m, rates, zdat.Config{ZoneDepth: cfg.ZoneDepth, Shortcuts: true, Sink: graph.Undefined})
	if err != nil {
		return nil, err
	}

	type dir interface {
		Publish(core.ObjectID, graph.NodeID) error
		Move(core.ObjectID, graph.NodeID) error
		Query(graph.NodeID, core.ObjectID) (graph.NodeID, float64, error)
		Meter() core.CostMeter
	}
	dirs := []dir{motAdapter{mot}, stunDir, zdatDir, zdatSC}
	meters := make([]core.CostMeter, len(dirs))
	for di, d := range dirs {
		for o, at := range w.Initial {
			if err := d.Publish(core.ObjectID(o), at); err != nil {
				return nil, err
			}
		}
		for _, mv := range w.Moves {
			if err := d.Move(mv.Object, mv.To); err != nil {
				return nil, err
			}
		}
		for _, q := range w.Queries {
			if _, _, err := d.Query(q.From, q.Object); err != nil {
				return nil, err
			}
		}
		meters[di] = d.Meter()
	}
	return meters, nil
}

// motAdapter narrows *core.Directory to the shared driver interface.
type motAdapter struct{ d *core.Directory }

func (a motAdapter) Publish(o core.ObjectID, at graph.NodeID) error { return a.d.Publish(o, at) }
func (a motAdapter) Move(o core.ObjectID, to graph.NodeID) error    { return a.d.Move(o, to) }
func (a motAdapter) Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	return a.d.Query(from, o)
}
func (a motAdapter) Meter() core.CostMeter { return a.d.Meter() }

// baselineTree builds the baseline tree plus its query discipline.
func baselineTree(alg string, g *graph.Graph, m *graph.Metric, rates map[mobility.EdgeKey]float64, zoneDepth int) (*treedir.Tree, treedir.Config, error) {
	switch alg {
	case AlgSTUN:
		t, err := stun.BuildTree(g, m, rates)
		return t, treedir.Config{SinkQueries: true}, err
	case AlgZDAT:
		t, err := zdat.BuildTree(g, m, rates, zdat.Config{ZoneDepth: zoneDepth, Sink: graph.Undefined})
		return t, treedir.Config{}, err
	case AlgZDATSC:
		t, err := zdat.BuildTree(g, m, rates, zdat.Config{ZoneDepth: zoneDepth, Sink: graph.Undefined})
		return t, treedir.Config{Shortcuts: true}, err
	}
	return nil, treedir.Config{}, fmt.Errorf("experiments: unknown baseline %q", alg)
}

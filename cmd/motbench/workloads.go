package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mobility"
)

// workload is one named input set. Exactly one of serve and batch is
// set: a serving workload drives a motserve process over HTTP, a batch
// workload runs the paper-sweep harness in a child process. Both name
// the substrate and op stream the traced run replays layer by layer.
type workload struct {
	name  string
	serve *serveSpec
	batch *batchSpec
}

// serveSpec is a serving workload: the motserve configuration and the
// traffic mix sent to it.
type serveSpec struct {
	nodes   int // motserve -nodes; 4096 and above run on the sketch oracle
	shards  int
	objects int // published before the measured phases
	// moveShare is the share of moves in the op stream; the rest are
	// queries from a uniform sensor.
	moveShare float64
	// farMoves sends each move to a uniform sensor; otherwise a move is
	// the object's next random-walk step to an adjacent sensor.
	farMoves bool
	// rate is the reference open-loop rate in ops/s.
	rate float64
}

// batchSpec is a batch workload: one pass runs every call in order.
type batchSpec struct {
	calls []batchCall
	// opsPerPass counts the tracking operations (publish, move, query,
	// per directory) one pass replays inside the harness.
	opsPerPass int
	// replayNodes and replayCfg describe the pass's largest cell, whose
	// op stream the traced run replays through each layer.
	replayNodes int
	replayCfg   mobility.Config
	// digestSeed1 is the result digest of one pass at -seed 1; empty
	// skips the check (smoke configurations).
	digestSeed1 string
	// auditCall, when set, names the call the traced run repeats with
	// the sampled exact audit off, to measure its share of the call.
	auditCall string
}

// batchCall is one harness invocation of a pass.
type batchCall struct {
	name  string
	cells int
	run   func(seed int64, noAudit bool) (any, error)
}

const (
	// latenessMax bounds the generator's median lateness (send minus
	// due); a run whose pacer fell further behind is invalid.
	latenessMax = 200 * time.Microsecond
	// setupRuns is the number of set-ups per run; setup_s is their
	// median.
	setupRuns = 3
)

// conns is the number of client connections and sender goroutines:
// one per CPU, so the generator never needs more threads than the box
// has.
func conns() int { return runtime.NumCPU() }

// workloads returns the four benchmark workloads, or their smoke
// variants (64-node grids and tiny sweeps) for the self-test.
func workloads(smoke bool) []*workload {
	walk := &serveSpec{nodes: 1024, shards: 4, objects: 4096, moveShare: 0.9, rate: 3000}
	far := &serveSpec{nodes: 16384, shards: 4, objects: 4096, moveShare: 0.2, farMoves: true, rate: 2000}
	sweep := sweepPaper([]int{256, 1024}, 100, 200, 100, 2)
	sweep.digestSeed1 = "9190d0aac173e3f2"
	scale := scale10k([]int{10000}, 200, 50, 1000, 2, 0)
	scale.digestSeed1 = "2f09949f3881a76e"
	if smoke {
		walk = &serveSpec{nodes: 64, shards: 2, objects: 64, moveShare: 0.9, rate: 400}
		far = &serveSpec{nodes: 64, shards: 2, objects: 64, moveShare: 0.2, farMoves: true, rate: 400}
		sweep = sweepPaper([]int{64}, 10, 20, 10, 1)
		scale = scale10k([]int{256}, 10, 10, 20, 1, 256)
	}
	return []*workload{
		{name: "serve-walk", serve: walk},
		{name: "serve-far", serve: far},
		{name: "sweep-paper", batch: sweep},
		{name: "scale-10k", batch: scale},
	}
}

func findWorkload(name string, smoke bool) (*workload, error) {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sweepPaper is the paper-reproduction pass: one one-by-one (Fig. 4
// shape) and one concurrent (Fig. 12 shape) cost-ratio sweep with
// load-balanced MOT against the baselines.
func sweepPaper(sizes []int, objects, moves, queries, seeds int) *batchSpec {
	cfg := func(seed int64, concurrent bool) experiments.CostRatioConfig {
		return experiments.CostRatioConfig{
			Sizes: sizes, Objects: objects, MovesPerObject: moves, Queries: queries,
			Seeds: seeds, LoadBalance: true, Concurrent: concurrent,
			BaseSeed: seed, Workers: runtime.GOMAXPROCS(0),
		}
	}
	cells := len(sizes) * seeds
	perCell := len(experiments.Algorithms) * (objects + objects*moves + queries)
	largest := sizes[len(sizes)-1]
	return &batchSpec{
		calls: []batchCall{
			{name: "experiments.onebyone", cells: cells, run: func(seed int64, _ bool) (any, error) {
				return experiments.RunCostRatio(cfg(seed, false))
			}},
			{name: "sim.concurrent", cells: cells, run: func(seed int64, _ bool) (any, error) {
				return experiments.RunCostRatio(cfg(seed, true))
			}},
		},
		opsPerPass:  2 * cells * perCell,
		replayNodes: largest,
		replayCfg:   mobility.Config{Objects: objects, MovesPerObject: moves, Queries: queries},
	}
}

// scale10k is the oracle-regime pass: MOT alone on 10k-node grids with
// the default sampled exact audit. oracleMinN overrides the harness's
// oracle threshold (zero keeps its default).
func scale10k(sizes []int, objects, moves, queries, seeds, oracleMinN int) *batchSpec {
	largest := sizes[len(sizes)-1]
	return &batchSpec{
		calls: []batchCall{
			{name: "experiments.scale", cells: len(sizes) * seeds, run: func(seed int64, noAudit bool) (any, error) {
				cfg := experiments.ScaleConfig{
					Sizes: sizes, Objects: objects, MovesPerObject: moves, Queries: queries,
					Seeds: seeds, BaseSeed: seed, OracleMinN: oracleMinN, Workers: runtime.GOMAXPROCS(0),
				}
				if noAudit {
					cfg.ExactSampleEvery = -1
				}
				return experiments.RunScale(cfg)
			}},
		},
		opsPerPass:  len(sizes) * seeds * (objects + objects*moves + queries),
		replayNodes: largest,
		replayCfg:   mobility.Config{Objects: objects, MovesPerObject: moves, Queries: queries},
		auditCall:   "experiments.scale",
	}
}

// batchStream generates the op stream the traced run replays for a
// batch workload: the workload of the pass's largest cell at seed index
// 0, exactly as the harness generates it. With uniform query origins
// the generator never asks for a distance, so a lazy metric suffices.
func batchStream(b *batchSpec, g *graph.Graph, seed int64) ([]op, []op, error) {
	cfg := b.replayCfg
	cfg.Seed = mobility.StreamSeed(seed, b.replayNodes, 0)
	w, err := mobility.Generate(g, graph.NewMetric(g), cfg)
	if err != nil {
		return nil, nil, err
	}
	pubs := make([]op, len(w.Initial))
	for o, at := range w.Initial {
		pubs[o] = op{kind: kPublish, obj: int32(o), node: int32(at)}
	}
	ops := make([]op, 0, len(w.Moves)+len(w.Queries))
	for _, mv := range w.Moves {
		ops = append(ops, op{kind: kMove, obj: int32(mv.Object), node: int32(mv.To)})
	}
	for _, q := range w.Queries {
		ops = append(ops, op{kind: kQuery, obj: int32(q.Object), node: int32(q.From)})
	}
	return pubs, ops, nil
}

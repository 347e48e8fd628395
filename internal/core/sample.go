package core

import (
	"repro/internal/graph"
)

// exactRowCap bounds the on-demand Dijkstra rows the sampler keeps; old
// rows are evicted FIFO. Sampled operations cluster around a few proxies
// and requesters, so a small cache absorbs most repeat lookups without
// ever approaching the n×n table the oracle mode exists to avoid.
const exactRowCap = 64

// exactSampler re-measures sampled distance terms with exact on-demand
// Dijkstra rows. It is only touched under the directory mutex.
type exactSampler struct {
	g     *graph.Graph
	rows  map[graph.NodeID][]float64
	order []graph.NodeID // FIFO eviction order
}

func newExactSampler(g *graph.Graph) *exactSampler {
	return &exactSampler{g: g, rows: make(map[graph.NodeID][]float64, exactRowCap)}
}

// dist returns the exact shortest-path distance, reusing a cached row of
// either endpoint when present.
func (s *exactSampler) dist(u, v graph.NodeID) float64 {
	if row, ok := s.rows[u]; ok {
		return row[v]
	}
	if row, ok := s.rows[v]; ok {
		return row[u]
	}
	row := s.g.Dijkstra(u).Dist
	if len(s.order) >= exactRowCap {
		delete(s.rows, s.order[0])
		s.order = s.order[1:]
	}
	s.rows[u] = row
	s.order = append(s.order, u)
	return row[v]
}

// mix64 is the SplitMix64 finalizer; the sampling decision hashes
// (seed, operation index) so the sampled subset is a deterministic
// function of the configuration, not of scheduling.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampleBegin decides whether the operation starting now is re-measured
// exactly, and resets the per-operation accumulators. Called under d.mu.
func (d *Directory) sampleBegin() bool {
	if d.sampler == nil {
		return false
	}
	idx := d.sampOps
	d.sampOps++
	on := mix64(uint64(d.cfg.ExactSampleSeed)^idx)%uint64(d.cfg.ExactSampleEvery) == 0
	d.sampActive = on
	d.sampEst, d.sampExact = 0, 0
	return on
}

// dist is the metered distance: the oracle estimate, shadowed by an exact
// re-measurement while a sampled operation is in flight.
func (d *Directory) dist(u, v graph.NodeID) float64 {
	est := d.h.m.Dist(u, v)
	if d.sampActive {
		d.sampEst += est
		//motlint:ignore hotalloc exact re-measurement runs on 1/ExactSampleEvery operations
		d.sampExact += d.sampler.dist(u, v)
	}
	return est
}

// sampleEndMaint books a completed sampled move: the accumulated cost
// terms plus the estimated and exact optimal (old-proxy to new-proxy).
func (d *Directory) sampleEndMaint(from, to graph.NodeID, optEst float64) {
	d.sampActive = false
	d.h.Meter.SampledMaintOps++
	d.h.Meter.SampledMaintCostEst += d.sampEst
	d.h.Meter.SampledMaintCostExact += d.sampExact
	d.h.Meter.SampledMaintOptEst += optEst
	//motlint:ignore hotalloc exact re-measurement runs on 1/ExactSampleEvery operations
	d.h.Meter.SampledMaintOptExact += d.sampler.dist(from, to)
}

// sampleEndQuery books a completed sampled query.
func (d *Directory) sampleEndQuery(from, proxy graph.NodeID, optEst float64) {
	d.sampActive = false
	d.h.Meter.SampledQueryOps++
	d.h.Meter.SampledQueryCostEst += d.sampEst
	d.h.Meter.SampledQueryCostExact += d.sampExact
	d.h.Meter.SampledQueryOptEst += optEst
	//motlint:ignore hotalloc exact re-measurement runs on 1/ExactSampleEvery operations
	d.h.Meter.SampledQueryOptExact += d.sampler.dist(from, proxy)
}

package core

import (
	"repro/internal/graph"
)

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
		d.sampExact += d.sampler.Dist(u, v)
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
	d.h.Meter.SampledMaintOptExact += d.sampler.Dist(from, to)
}

// sampleEndQuery books a completed sampled query.
func (d *Directory) sampleEndQuery(from, proxy graph.NodeID, optEst float64) {
	d.sampActive = false
	d.h.Meter.SampledQueryOps++
	d.h.Meter.SampledQueryCostEst += d.sampEst
	d.h.Meter.SampledQueryCostExact += d.sampExact
	d.h.Meter.SampledQueryOptEst += optEst
	d.h.Meter.SampledQueryOptExact += d.sampler.Dist(from, proxy)
}

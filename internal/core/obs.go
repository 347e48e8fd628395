package core

import (
	"repro/internal/obs"
	"repro/internal/overlay"
)

// Observability hooks for the sequential substrate. Core operations
// execute instantly under the directory lock, so the logical clock is the
// cumulative metered cost: a span opens at the clock's current value,
// every event inside it carries that same time, and End stamps
// start+cost before the clock advances. Operation numbers are assigned in
// execution order, which under the lock is the issue order — exports are
// therefore byte-deterministic for a deterministic workload. Every hook
// reduces to one pointer test when Config.Obs is nil.

// obsStart opens the span for the operation now entering the directory.
func (d *Directory) obsStart(kind string, o ObjectID) {
	if d.cfg.Obs == nil {
		return
	}
	d.obsOp++
	d.obsCur = d.cfg.Obs.StartSpan(kind, d.obsOp, int(o), d.obsNow)
}

// obsFinish closes the in-flight span and advances the cost clock.
func (d *Directory) obsFinish(cost float64) {
	if d.cfg.Obs == nil {
		return
	}
	d.obsCur.End(d.obsNow + cost)
	d.obsNow += cost
	d.obsCur = obs.Span{}
}

// obsVisit accounts one message arrival at station st: the per-node
// traffic series and the per-level hop count.
func (d *Directory) obsVisit(st overlay.Station) {
	if d.cfg.Obs == nil {
		return
	}
	d.cfg.Obs.AddAt(obs.SeriesNodeMsgs, int(st.Host), 1)
	d.cfg.Obs.AddAt(obs.SeriesLevelHops, st.Level, 1)
}

// ObserveLoad snapshots the current per-node storage load (placement-
// aware DL+SDL entry counts over n physical nodes) into the recorder's
// node.entries series, replacing any previous snapshot.
func (d *Directory) ObserveLoad(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.h.ObserveLoad(d.cfg.Obs, n)
}

// ObserveLoad is Directory.ObserveLoad over the store, into r.
func (h *Handler) ObserveLoad(r *obs.Recorder, n int) {
	if r == nil {
		return
	}
	load := h.LoadByNode(n)
	vals := make([]float64, len(load))
	for i, v := range load {
		vals[i] = float64(v)
	}
	r.SetSeries(obs.SeriesNodeEntries, vals)
}

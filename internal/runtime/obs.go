package runtime

// Observability hooks for the message-passing runtime, whose operations
// walk station to station on their callers' goroutines. The runtime has
// no clock at all (motlint's walltime rule bans wall time, and sleeping
// would break determinism), so the logical clock is a cost clock: a span
// opens at the current accumulated clock value and the clock advances by
// the operation's cost when it completes. Under sequential replay —
// one blocking operation at a time, the mode the golden tests drive —
// this ordering is exact and exports are byte-deterministic; racing
// clients still record safely, but span ids then follow the racy issue
// order. Events inside a span carry the span's start time (the runtime
// cannot time individual hops) and rely on Seq for ordering.

// obsBegin opens the span for op and bumps the in-flight gauge.
func (t *Tracker) obsBegin(kind string, op *opState) {
	if t.obs == nil {
		return
	}
	t.obsMu.Lock()
	op.msg.Now = t.obsNow
	t.inflight++
	t.obs.GaugeMax("ops.inflight", float64(t.inflight))
	t.obsMu.Unlock()
	op.msg.Span = t.obs.StartSpan(kind, op.id, int(op.msg.Obj), op.msg.Now)
}

// obsEnd closes op's span, advancing the cost clock by its final cost.
func (t *Tracker) obsEnd(op *opState) {
	if t.obs == nil {
		return
	}
	t.obsMu.Lock()
	t.obsNow += op.msg.Cost
	end := t.obsNow
	t.inflight--
	t.obsMu.Unlock()
	op.msg.Span.End(end)
}

// ObserveLoad snapshots LoadByNode into the recorder's node.entries
// series, replacing any previous snapshot.
func (t *Tracker) ObserveLoad() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h.ObserveLoad(t.obs, t.n)
}

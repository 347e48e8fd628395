package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runtime/track"
)

// TestNilRecorderIsInert pins the nil-sink contract: every method on a
// nil recorder (and the spans it hands out) is a safe no-op.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Label() != "" {
		t.Fatal("nil recorder has a label")
	}
	sp := r.StartSpan(OpMove, 1, 2, 0)
	if sp.Active() {
		t.Fatal("nil recorder produced an active span")
	}
	sp.Event(EvHop, 0, 1, 1.5, 0.5)
	sp.End(2)
	r.Add("x", 1)
	r.GaugeMax("x", 1)
	r.Observe("x", 1)
	r.AddAt("x", 3, 1)
	r.Arrive(sp, 1, 2, 0)
	r.Attempt(sp, 2, 1, 2, 0)
	if r.SpanCount() != 0 {
		t.Fatal("nil recorder counted spans")
	}
	snap := r.Snapshot()
	if snap.Spans != 0 || snap.Counters != nil {
		t.Fatalf("nil recorder snapshot not zero: %+v", snap)
	}
	if vs := r.SeriesValues("x"); vs != nil {
		t.Fatalf("nil recorder returned series %v", vs)
	}
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil recorder JSONL: err=%v out=%q", err, b.String())
	}
	r.Dump() // must not panic
}

// TestSpanRecording checks span/event bookkeeping and the snapshot's
// aggregate view.
func TestSpanRecording(t *testing.T) {
	r := New("test")
	sp := r.StartSpan(OpMove, 7, 3, 10)
	sp.Event(EvHop, 0, 4, 1.5, 10)
	sp.Event(EvStamp, 1, 5, 0, 10)
	sp.End(12.5)
	if !sp.Active() {
		t.Fatal("span from live recorder inactive")
	}
	if r.SpanCount() != 1 {
		t.Fatalf("SpanCount = %d, want 1", r.SpanCount())
	}
	spans := r.sortedSpans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	got := spans[0]
	if got.op != 7 || got.kind != OpMove || got.object != 3 || got.start != 10 || got.end != 12.5 || !got.done {
		t.Fatalf("span = %+v", got)
	}
	if len(got.events) != 2 || got.events[0].Seq != 0 || got.events[1].Seq != 1 {
		t.Fatalf("events = %+v", got.events)
	}
	if got.events[0].Kind != EvHop || got.events[0].Node != 4 || got.events[0].Cost != 1.5 {
		t.Fatalf("hop event = %+v", got.events[0])
	}
}

// TestArriveAttempt checks the message hooks the message-driven
// substrates share: per-level hops and a hop event per arrival, per-node
// messages per attempt, and a retry event from the second attempt on.
func TestArriveAttempt(t *testing.T) {
	r := New("test")
	sp := r.StartSpan(OpQuery, 1, 1, 0)
	r.Arrive(sp, 2, 5, 3)
	r.Attempt(sp, 5, 1.5, 1, 3)
	r.Attempt(sp, 5, 1.5, 2, 4)
	if hops := r.SeriesValues(SeriesLevelHops); len(hops) != 3 || hops[2] != 1 {
		t.Fatalf("level hops = %v", hops)
	}
	if msgs := r.SeriesValues(SeriesNodeMsgs); len(msgs) != 6 || msgs[5] != 2 {
		t.Fatalf("node msgs = %v", msgs)
	}
	ev := r.sortedSpans()[0].events
	if len(ev) != 2 || ev[0].Kind != EvHop || ev[0].Level != 2 || ev[1].Kind != EvRetry || ev[1].Cost != 1.5 || ev[1].At != 4 {
		t.Fatalf("events = %+v", ev)
	}
}

// TestMetricsRegistry checks the four metric families and snapshot
// ordering.
func TestMetricsRegistry(t *testing.T) {
	r := New("m")
	r.Add("z.count", 2)
	r.Add("a.count", 1)
	r.Add("a.count", 3)
	r.GaugeMax("depth", 5)
	r.GaugeMax("depth", 3) // lower; must not stick
	r.GaugeMax("depth", 9)
	r.Observe("cost", 0.5) // le1
	r.Observe("cost", 600) // +Inf
	r.Observe("cost", 16)  // le16
	r.AddAt("load", 2, 4)
	r.AddAt("load", 0, 1)
	r.AddAt("load", -1, 99) // ignored

	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a.count" || snap.Counters[0].Value != 4 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 9 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	h := snap.Histograms[0]
	if h.Count != 3 || h.Sum != 616.5 {
		t.Fatalf("hist count/sum = %d/%g", h.Count, h.Sum)
	}
	if h.Counts[0] != 1 || h.Counts[4] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("hist buckets = %v", h.Counts)
	}
	if len(snap.Series) != 1 {
		t.Fatalf("series = %+v", snap.Series)
	}
	s := snap.Series[0]
	if len(s.Values) != 3 || s.Values[0] != 1 || s.Values[1] != 0 || s.Values[2] != 4 {
		t.Fatalf("series values = %v", s.Values)
	}
	if s.Max() != 4 || s.NonZero() != 2 {
		t.Fatalf("series stats max=%g nonzero=%d", s.Max(), s.NonZero())
	}
	if got := r.SeriesValues("load"); len(got) != 3 || got[2] != 4 {
		t.Fatalf("SeriesValues = %v", got)
	}
	if r.SeriesValues("missing") != nil {
		t.Fatal("missing series not nil")
	}
}

// TestConcurrentRecording hammers one recorder from several goroutines
// under the race detector and checks the totals: concurrent use must be
// safe even though deterministic exports additionally require a
// deterministic issue order.
func TestConcurrentRecording(t *testing.T) {
	r := New("race")
	const workers, per = 8, 200
	var g track.Group
	for w := 0; w < workers; w++ {
		w := w
		g.Go(func() {
			for i := 0; i < per; i++ {
				sp := r.StartSpan(OpQuery, uint64(w*per+i+1), w, float64(i))
				sp.Event(EvHop, 0, w, 1, float64(i))
				sp.End(float64(i + 1))
				r.Add("ops", 1)
				r.Observe("cost", float64(i%20))
				r.AddAt(SeriesNodeMsgs, w, 1)
				r.GaugeMax("hi", float64(i))
			}
		})
	}
	g.Wait()
	if r.SpanCount() != workers*per {
		t.Fatalf("spans = %d, want %d", r.SpanCount(), workers*per)
	}
	snap := r.Snapshot()
	if snap.Counters[0].Value != workers*per {
		t.Fatalf("ops counter = %g", snap.Counters[0].Value)
	}
	if snap.Series[0].NonZero() != workers {
		t.Fatalf("series nonzero = %d", snap.Series[0].NonZero())
	}
	// Span identity is unique, so the sorted export is deterministic
	// even though recording order raced.
	var a, b strings.Builder
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated JSONL exports differ")
	}
}

// TestSnapshotJSONRoundTrips ensures the snapshot marshals (the debug
// endpoint serves it as JSON).
func TestSnapshotJSONRoundTrips(t *testing.T) {
	r := New("json")
	r.Add("c", 1)
	r.Observe("h", 2)
	r.AddAt("s", 1, 3)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "json" || len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestNilRecorderZeroAllocs pins the //motlint:hotpath contract on the
// nil-sink path: every hook a disabled substrate touches reduces to a
// pointer test, so instrumentation costs nothing when Obs is off.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	if allocs := testing.AllocsPerRun(200, func() {
		if r.Enabled() {
			t.Fatal("nil recorder claims enabled")
		}
		_ = r.Label()
		sp := r.StartSpan(OpMove, 1, 2, 3)
		_ = sp.Active()
		sp.Event(EvHop, 0, 1, 2, 3)
		sp.End(4)
		_ = r.SpanCount()
	}); allocs != 0 {
		t.Fatalf("nil-sink obs path allocates %v per op, want 0", allocs)
	}
}

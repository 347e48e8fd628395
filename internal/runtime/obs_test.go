package runtime

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/obs"
)

func newObsTracker(t testing.TB, w, h int) (*Tracker, *obs.Recorder) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New("runtime")
	tr := New(g, hs, Options{Obs: rec})
	t.Cleanup(tr.Stop)
	return tr, rec
}

// TestInstrumentedSpans checks that sequential operations produce one
// span each, on a monotone cost clock, with stamp/wipe/peak annotations.
func TestInstrumentedSpans(t *testing.T) {
	tr, rec := newObsTracker(t, 6, 6)
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Move(1, 35); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Query(17, 1); err != nil {
		t.Fatal(err)
	}
	if rec.SpanCount() != 3 {
		t.Fatalf("spans = %d, want 3", rec.SpanCount())
	}
	var out strings.Builder
	if err := rec.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	for i, want := range []string{obs.OpPublish, obs.OpMove, obs.OpQuery} {
		if !strings.Contains(lines[i], `"kind":"`+want+`"`) {
			t.Fatalf("line %d missing kind %s: %s", i, want, lines[i])
		}
	}
	if !strings.Contains(lines[0], obs.EvStamp) {
		t.Fatalf("publish span has no stamps: %s", lines[0])
	}
	if !strings.Contains(lines[1], obs.EvWipe) || !strings.Contains(lines[1], obs.EvPeak) {
		t.Fatalf("move span missing wipe/peak: %s", lines[1])
	}
	snap := rec.Snapshot()
	if len(snap.Series) == 0 {
		t.Fatal("no series recorded")
	}
	gotGauge := false
	for _, g := range snap.Gauges {
		if g.Name == "ops.inflight" && g.Value >= 1 {
			gotGauge = true
		}
	}
	if !gotGauge {
		t.Fatalf("ops.inflight gauge missing: %+v", snap.Gauges)
	}
}

// TestLoadByNodeAndObserveLoad checks the quiescent storage-load view.
func TestLoadByNodeAndObserveLoad(t *testing.T) {
	tr, rec := newObsTracker(t, 5, 5)
	for o := 1; o <= 3; o++ {
		if err := tr.Publish(core.ObjectID(o), graph.NodeID(o*7%25)); err != nil {
			t.Fatal(err)
		}
	}
	load := tr.LoadByNode()
	if len(load) != 25 {
		t.Fatalf("load length = %d", len(load))
	}
	total := 0
	for _, v := range load {
		total += v
	}
	if total == 0 {
		t.Fatal("no entries counted")
	}
	tr.ObserveLoad()
	vals := rec.SeriesValues(obs.SeriesNodeEntries)
	if len(vals) != 25 {
		t.Fatalf("series length = %d", len(vals))
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if int(sum) != total {
		t.Fatalf("series sum %v != load total %d", sum, total)
	}
}

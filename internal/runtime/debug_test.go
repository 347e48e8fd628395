package runtime

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/obs"
	"repro/internal/obs/live"
)

// newLiveTracker builds a tracker with both observability layers
// attached: the deterministic obs recorder and a live wall-clock sink.
func newLiveTracker(t testing.TB, w, h int) (*Tracker, *live.Recorder) {
	t.Helper()
	g := graph.Grid(w, h)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lrec := live.New("runtime-test", live.Config{SampleSize: 64, Seed: 1})
	tr := New(g, hs, Options{Obs: obs.New("runtime"), Live: lrec})
	t.Cleanup(tr.Stop)
	return tr, lrec
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: bad JSON %v:\n%s", path, err, body)
		}
	}
	return resp
}

// TestDebugMuxLiveRoundTrip drives the debug handler through httptest:
// run real ops, then read back the live percentile snapshot, the
// sampled spans and the per-node load exactly as a client would.
func TestDebugMuxLiveRoundTrip(t *testing.T) {
	tr, _ := newLiveTracker(t, 6, 6)
	for o := 1; o <= 4; o++ {
		if err := tr.Publish(core.ObjectID(o), graph.NodeID(o)); err != nil {
			t.Fatal(err)
		}
		if err := tr.Move(core.ObjectID(o), graph.NodeID(o+20)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tr.Query(0, core.ObjectID(o)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Crash(3)
	tr.Recover(3)

	srv := httptest.NewServer(tr.DebugMux())
	defer srv.Close()

	var snap live.Snapshot
	if resp := getJSON(t, srv, "/debug/live", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/live status %d", resp.StatusCode)
	}
	if snap.Label != "runtime-test" {
		t.Fatalf("label = %q", snap.Label)
	}
	if snap.Total.Count != 14 { // 4 publish + 4 move + 4 query + crash + recover
		t.Fatalf("total count = %d, want 14", snap.Total.Count)
	}
	byClass := map[string]live.OpSnapshot{}
	for _, op := range snap.Ops {
		byClass[op.Class] = op
	}
	for _, class := range []string{"publish", "move", "query"} {
		op := byClass[class]
		if op.Count != 4 {
			t.Fatalf("%s count = %d, want 4", class, op.Count)
		}
		if op.P50Ns <= 0 || op.P99Ns < op.P50Ns || op.MaxNs < op.P999Ns {
			t.Fatalf("%s percentiles malformed: %+v", class, op)
		}
	}
	if byClass["recovery"].Count != 2 {
		t.Fatalf("recovery count = %d, want 2 (crash+recover)", byClass["recovery"].Count)
	}

	var samples []live.Sample
	if resp := getJSON(t, srv, "/debug/live/samples", &samples); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/live/samples status %d", resp.StatusCode)
	}
	if len(samples) != 14 {
		t.Fatalf("samples = %d, want all 14 (under reservoir cap)", len(samples))
	}
	for _, s := range samples {
		if s.DurNs < 0 || s.Class == "" {
			t.Fatalf("malformed sample: %+v", s)
		}
	}

	var load []int
	if resp := getJSON(t, srv, "/debug/load", &load); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/load status %d", resp.StatusCode)
	}
	if len(load) != 36 {
		t.Fatalf("load length = %d", len(load))
	}
}

// TestDebugMuxLiveDisabled pins the live-off contract at the HTTP
// surface: the endpoints exist but answer 404, not garbage.
func TestDebugMuxLiveDisabled(t *testing.T) {
	tr, _ := newObsTracker(t, 4, 4)
	srv := httptest.NewServer(tr.DebugMux())
	defer srv.Close()
	for _, path := range []string{"/debug/live", "/debug/live/samples"} {
		if resp := getJSON(t, srv, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with live off: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestLiveOverheadBudget sanity-checks the overhead contract outside
// the bench harness: the same op sequence with live telemetry on must
// not blow past the live-off time. The ≤10% target is measured in
// internal/bench (runtime/ops-live-on vs -off, recorded in
// BENCH_15.json) and is not met at the current op cost (22.1% there);
// here we take min-of-3 trials and assert a loose 1.5× ceiling so
// scheduler noise on 1-CPU CI can't flake the tier.
func TestLiveOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	run := func(lrec *live.Recorder) time.Duration {
		g := graph.Grid(8, 8)
		m := graph.NewMetric(g)
		hs, err := hier.Build(g, m, hier.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr := New(g, hs, Options{Live: lrec})
		defer tr.Stop()
		if err := tr.Publish(1, 0); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			t0 := time.Now()
			for i := 0; i < 200; i++ {
				if err := tr.Move(1, graph.NodeID(1+i%60)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := tr.Query(63, 1); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	off := run(nil)
	on := run(live.New("overhead", live.Config{}))
	if off > 0 && float64(on) > 1.5*float64(off) {
		t.Fatalf("live-on %v vs live-off %v: overhead beyond loose 1.5x ceiling", on, off)
	}
	t.Logf("live-off %v, live-on %v (%.1f%%)", off, on, 100*(float64(on)/float64(off)-1))
}

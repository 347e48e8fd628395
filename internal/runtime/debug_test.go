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
	"repro/internal/runtime/track"
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
// run real ops, then read back the live percentile snapshot and the
// sampled spans exactly as a ServeDebug client would.
func TestDebugMuxLiveRoundTrip(t *testing.T) {
	tr, lrec := newLiveTracker(t, 6, 6)
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
	lrec.Publish()

	srv := httptest.NewServer(tr.debugMux())
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

	// The deterministic endpoints still serve alongside the live ones.
	var obsSnap map[string]any
	if resp := getJSON(t, srv, "/debug/obs", &obsSnap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/obs status %d", resp.StatusCode)
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
	srv := httptest.NewServer(tr.debugMux())
	defer srv.Close()
	for _, path := range []string{"/debug/live", "/debug/live/samples"} {
		if resp := getJSON(t, srv, path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s with live off: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeDebugLive exercises the real listener path: publisher
// lifecycle, expvar registration, and a fresh snapshot over HTTP.
func TestServeDebugLive(t *testing.T) {
	tr, _ := newLiveTracker(t, 4, 4)
	if err := tr.Publish(1, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := tr.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/debug/live")
	if err != nil {
		t.Fatal(err)
	}
	var snap live.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Total.Count != 1 {
		t.Fatalf("live snapshot over HTTP: %+v", snap.Total)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceDebugCloseDuringStop is the shutdown-ordering regression for
// the debug endpoint: /debug/live requests hammer the server while the
// tracker stops and the server closes, from several goroutines at once.
// Before DebugServer.Close switched to a Shutdown-first teardown, an
// in-flight handler could still be reading the live recorder while the
// publisher and tracker were being torn down around it; Close also
// wasn't guarded, so concurrent or repeated Closes raced on the serve
// loop's Wait. Runs in the -race smoke tier.
func TestRaceDebugCloseDuringStop(t *testing.T) {
	for round := 0; round < 3; round++ {
		g := graph.Grid(4, 4)
		m := graph.NewMetric(g)
		hs, err := hier.Build(g, m, hier.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		lrec := live.New("race-debug", live.Config{SampleSize: 32, Seed: 1})
		tr := New(g, hs, Options{Live: lrec})
		srv, err := tr.ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Publish(1, 0); err != nil {
			t.Fatal(err)
		}

		var hammers track.Group
		stop := make(chan struct{})
		for w := 0; w < 4; w++ {
			hammers.Go(func() {
				client := &http.Client{Timeout: 2 * time.Second}
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, path := range []string{"/debug/live", "/debug/live/samples"} {
						resp, err := client.Get("http://" + srv.Addr() + path)
						if err != nil {
							// Connection refused/reset once the teardown has
							// won the race is the expected outcome here.
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			})
		}

		// Generate traffic, then tear everything down while requests are
		// still in flight: Close and Stop race each other and themselves.
		for i := 0; i < 10; i++ {
			if err := tr.Move(1, graph.NodeID(1+i%14)); err != nil {
				t.Fatal(err)
			}
		}
		var teardown track.Group
		errs := make([]error, 2)
		teardown.Go(func() { errs[0] = srv.Close() })
		teardown.Go(func() { errs[1] = srv.Close() })
		teardown.Go(tr.Stop)
		teardown.Wait()
		if errs[0] != errs[1] {
			t.Fatalf("double Close disagreed: %v vs %v", errs[0], errs[1])
		}
		if errs[0] != nil {
			t.Fatalf("Close: %v", errs[0])
		}
		// A Close after the fact stays a no-op with the same answer.
		if err := srv.Close(); err != nil {
			t.Fatalf("repeated Close: %v", err)
		}
		close(stop)
		hammers.Wait()
	}
}

// TestLiveOverheadBudget sanity-checks the overhead contract outside
// the bench harness: the same op sequence with live telemetry on must
// not blow past the live-off time. The precise ≤10% pin lives in
// internal/bench (runtime/ops-live-on vs -off, recorded in
// BENCH_15.json); here we take min-of-3 trials and assert a loose 1.5×
// ceiling so scheduler noise on 1-CPU CI can't flake the tier.
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

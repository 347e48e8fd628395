package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/live"
	"repro/internal/runtime/track"
)

// newTestServer builds a small server and an httptest front for it,
// with both torn down at cleanup (Shutdown first, so the drain sees the
// handlers finish).
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// doJSON posts (or gets, for body == "") and decodes the JSON response.
func doJSON(t testing.TB, method, url, body string, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %v:\n%s", method, url, err, raw)
		}
	}
	return resp
}

func publishBody(obj, node int) string {
	return fmt.Sprintf(`{"object":%d,"node":%d}`, obj, node)
}

func moveBody(obj, to int) string {
	return fmt.Sprintf(`{"object":%d,"to":%d}`, obj, to)
}

// TestServeRoundTrip drives the whole happy path plus every client
// fault through the real mux: publish/move/query against live shards,
// duplicate publishes, unknown objects, malformed bodies, out-of-range
// sensors, and the drill endpoints' 403 when chaos admin is off.
func TestServeRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Nodes: 36, Seed: 3})

	var pub publishResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 5), &pub); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}
	if pub.Object != 1 || pub.Node != 5 || pub.Shard < 0 || pub.Shard > 1 {
		t.Fatalf("publish response %+v", pub)
	}

	// Same object again is a client fault, classified 409.
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 7), nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate publish status %d, want 409", resp.StatusCode)
	}

	var mv moveResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(1, 17), &mv); resp.StatusCode != http.StatusOK {
		t.Fatalf("move status %d", resp.StatusCode)
	}
	if mv.Shard != pub.Shard {
		t.Fatalf("move landed on shard %d, publish on %d", mv.Shard, pub.Shard)
	}

	var q queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if q.Location != 17 {
		t.Fatalf("query location %d, want 17", q.Location)
	}
	if loc, ok := s.Location(1); !ok || loc != 17 {
		t.Fatalf("direct Location = %d,%v, want 17,true", loc, ok)
	}

	// Distance-sensitive query from an explicit sensor.
	var qf queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1?from=17", "", &qf); resp.StatusCode != http.StatusOK {
		t.Fatalf("query?from status %d", resp.StatusCode)
	}
	if qf.Location != 17 {
		t.Fatalf("query?from location %d, want 17", qf.Location)
	}

	// Client faults, each with its contract status.
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"unknown object query", "GET", "/v1/query/999", "", http.StatusNotFound},
		{"move unpublished", "POST", "/v1/move", moveBody(999, 3), http.StatusNotFound},
		{"syntax error", "POST", "/v1/publish", `{"object":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/publish", `{"object":2,"node":1,"bogus":true}`, http.StatusBadRequest},
		{"trailing garbage", "POST", "/v1/move", moveBody(1, 3) + `{"more":1}`, http.StatusBadRequest},
		{"wrong type", "POST", "/v1/move", `{"object":"one","to":3}`, http.StatusBadRequest},
		{"node out of range", "POST", "/v1/publish", publishBody(2, 36), http.StatusBadRequest},
		{"negative node", "POST", "/v1/move", moveBody(1, -1), http.StatusBadRequest},
		{"bad object id", "GET", "/v1/query/not-a-number", "", http.StatusBadRequest},
		{"bad from param", "GET", "/v1/query/1?from=x", "", http.StatusBadRequest},
		{"from out of range", "GET", "/v1/query/1?from=36", "", http.StatusBadRequest},
		{"drills disabled fail", "POST", "/v1/fail/3", "", http.StatusForbidden},
		{"drills disabled recover", "POST", "/v1/recover/3", "", http.StatusForbidden},
		{"bad method", "GET", "/v1/publish", "", http.StatusMethodNotAllowed},
	} {
		resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// A malformed move must not have touched the trail.
	var q2 queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q2); resp.StatusCode != http.StatusOK || q2.Location != 17 {
		t.Fatalf("after rejected moves: status %d location %d, want 200/17", resp.StatusCode, q2.Location)
	}
}

// TestServeShardPartition pins the SplitMix64 partition: a dense object
// range spreads across every shard, and each object consistently lands
// on the same shard across ops.
func TestServeShardPartition(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4, Nodes: 16, Seed: 1})
	hit := make([]int, 4)
	for o := 0; o < 32; o++ {
		var pub publishResponse
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o%16), &pub); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
		if want := s.shardFor(core.ObjectID(o)).id; pub.Shard != want {
			t.Fatalf("object %d on shard %d, shardFor says %d", o, pub.Shard, want)
		}
		hit[pub.Shard]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Errorf("shard %d got no objects out of a dense 32 (distribution %v)", i, hit)
		}
	}
}

// TestServeBackpressure exercises the 429 path deterministically: with
// the single inflight slot held externally, publish, move and query
// must all shed, carry the Retry-After hint and count into the rejected
// meter, and service resumes once the slot is released.
func TestServeBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, Nodes: 16, Seed: 1, Inflight: 1})
	sh := s.shards[0]
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 0), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	// Hold the single inflight slot: every operation must shed.
	if !sh.tryAcquire() {
		t.Fatal("could not take the only slot")
	}
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/publish", publishBody(2, 1)},
		{"POST", "/v1/move", moveBody(1, 3)},
		{"GET", "/v1/query/1", ""},
	} {
		resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s %s under saturation: status %d, want 429", tc.method, tc.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 429 without Retry-After", tc.method, tc.path)
		}
	}
	sh.release()
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after release: status %d", resp.StatusCode)
	}
	if got := s.Snapshot().Rejected; got != 3 {
		t.Fatalf("rejected meter = %d, want 3", got)
	}
}

// TestServeChaosDrill runs a fault drill over HTTP: with chaos admin
// on, failing the overlay root makes operations fail with 503 (the
// retransmission budget exhausts against a crashed sensor), and
// recovery restores service.
func TestServeChaosDrill(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Nodes: 16, Seed: 1, ChaosAdmin: true})
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 2), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}

	root := int64(s.Root())
	var drill drillResponse
	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/fail/%d", ts.URL, root), "", &drill); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail drill status %d", resp.StatusCode)
	}
	if drill.Action != "fail" || drill.Node != root {
		t.Fatalf("drill response %+v", drill)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query through failed root: status %d, want 503", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(1, 9), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("move through failed root: status %d, want 503", resp.StatusCode)
	}

	if resp := doJSON(t, "POST", fmt.Sprintf("%s/v1/recover/%d", ts.URL, root), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recover drill status %d", resp.StatusCode)
	}
	// The 503'd move had no effect: ground truth and every origin's
	// answer are still node 2, and the object moves again.
	if loc, _ := s.Location(1); loc != 2 {
		t.Fatalf("failed move changed the ground truth to %d, want 2", loc)
	}
	for from := 0; from < 16; from++ {
		var q queryResponse
		if resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/query/1?from=%d", ts.URL, from), "", &q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query from %d after recovery: status %d", from, resp.StatusCode)
		}
		if q.Location != 2 {
			t.Fatalf("query from %d after recovery: location %d, want 2", from, q.Location)
		}
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(1, 9), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("move after recovery: status %d, want 200", resp.StatusCode)
	}
	var q queryResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/query/1", "", &q); resp.StatusCode != http.StatusOK || q.Location != 9 {
		t.Fatalf("query after the retried move: status %d location %d, want 200 at 9", resp.StatusCode, q.Location)
	}
	checkShards(t, s)

	// Drill endpoints still validate their input.
	if resp := doJSON(t, "POST", ts.URL+"/v1/fail/99", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fail out-of-range: status %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/fail/abc", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fail bad id: status %d, want 400", resp.StatusCode)
	}
}

// checkShards asserts core's directory invariants on every shard's
// tracker; valid only with no operation in flight.
func checkShards(t testing.TB, s *Server) {
	t.Helper()
	for _, sh := range s.shards {
		if err := sh.tr.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", sh.id, err)
		}
	}
}

// TestServeDebugEndpoints reads back the aggregated /debug/serve
// snapshot and each shard's mounted runtime diagnostics, and checks
// that the process-wide pprof handlers mount once, not per shard.
func TestServeDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Nodes: 16, Seed: 1})
	for o := 0; o < 8; o++ {
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
		if resp := doJSON(t, "POST", ts.URL+"/v1/move", moveBody(o, o+8), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("move %d: status %d", o, resp.StatusCode)
		}
		if resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/query/%d", ts.URL, o), "", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", o, resp.StatusCode)
		}
	}

	var st Status
	if resp := doJSON(t, "GET", ts.URL+"/debug/serve", "", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/serve status %d", resp.StatusCode)
	}
	if st.Shards != 2 || st.Nodes != 16 {
		t.Fatalf("snapshot shape %+v", st)
	}
	if st.Request.Total.Count != 24 {
		t.Fatalf("request count %d, want 24", st.Request.Total.Count)
	}
	if st.OpsPerSec <= 0 || st.UptimeNs <= 0 {
		t.Fatalf("rates unset: ops/sec %.1f uptime %d", st.OpsPerSec, st.UptimeNs)
	}
	if len(st.ShardStatus) != 2 {
		t.Fatalf("shard rows %d, want 2", len(st.ShardStatus))
	}
	var shardOps int64
	for _, row := range st.ShardStatus {
		if row.Label != fmt.Sprintf("serve-shard-%d", row.ID) {
			t.Fatalf("shard row label %q", row.Label)
		}
		if row.Inflight != 0 {
			t.Fatalf("shard %d inflight %d at quiescence", row.ID, row.Inflight)
		}
		shardOps += row.Ops
	}
	if shardOps != 24 {
		t.Fatalf("summed shard ops %d, want 24", shardOps)
	}
	for _, class := range []live.Class{live.ClassPublish, live.ClassMove, live.ClassQuery} {
		op := st.Request.Ops[class]
		if op.Count != 8 || op.P50Ns <= 0 || op.P99Ns < op.P50Ns {
			t.Fatalf("request class %s malformed: %+v", op.Class, op)
		}
	}

	// Per-shard runtime diagnostics ride along under /debug/shard/<i>/.
	for i := 0; i < 2; i++ {
		var snap live.Snapshot
		url := fmt.Sprintf("%s/debug/shard/%d/debug/live", ts.URL, i)
		if resp := doJSON(t, "GET", url, "", &snap); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", url, resp.StatusCode)
		}
		if snap.Label != fmt.Sprintf("serve-shard-%d", i) {
			t.Fatalf("shard %d live label %q", i, snap.Label)
		}
		if snap.Total.Count == 0 {
			t.Fatalf("shard %d live count 0", i)
		}
	}
	for path, want := range map[string]int{
		"/debug/pprof/":             http.StatusOK,
		"/debug/shard/0/debug/vars": http.StatusNotFound,
	} {
		if resp := doJSON(t, "GET", ts.URL+path, "", nil); resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServeShutdownDrain is the SIGTERM-drain contract over a real
// listener: concurrent writers stream moves while the server shuts
// down mid-flight; afterwards every move acknowledged with a 200 must
// be reflected in its object's final location — no lost acks — and the
// server answers nothing further.
func TestServeShutdownDrain(t *testing.T) {
	s, err := New(Config{Shards: 4, Nodes: 36, Seed: 2, Inflight: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Start()
	defer ts.Close()

	const writers = 8
	lastAcked := make([]int64, writers) // -1 = nothing acked
	var stop atomic.Bool
	var g track.Group
	for w := 0; w < writers; w++ {
		obj := w + 1
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(obj, 0), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", obj, resp.StatusCode)
		}
		lastAcked[w] = -1
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for target := 1; !stop.Load(); target++ {
				to := target % 36
				resp, err := client.Post(ts.URL+"/v1/move", "application/json",
					bytes.NewReader([]byte(moveBody(obj, to))))
				if err != nil {
					return // connection cut by the drain: nothing was acked
				}
				code := resp.StatusCode
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch code {
				case http.StatusOK:
					lastAcked[w] = int64(to)
				case http.StatusTooManyRequests:
					continue // shed, retry next target
				default:
					return // 503 once draining: stop writing
				}
			}
		})
	}

	// Let the writers build up real traffic, then drain mid-flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	g.Go(func() { shutdownErr <- s.Shutdown(ctx) })

	// The handler drain covers the httptest server's connections too:
	// its Close waits for outstanding requests, and the draining flag
	// turns everything arriving later into an immediate 503.
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	g.Wait()

	// Every acknowledged move is reflected at quiescence.
	acked := 0
	for w := 0; w < writers; w++ {
		if lastAcked[w] < 0 {
			continue
		}
		acked++
		obj := core.ObjectID(w + 1)
		loc, ok := s.Location(obj)
		if !ok {
			t.Fatalf("object %d vanished after drain", obj)
		}
		if int64(loc) != lastAcked[w] {
			t.Fatalf("object %d at %d, last acked move was to %d — lost an acked move",
				obj, loc, lastAcked[w])
		}
	}
	if acked == 0 {
		t.Fatal("no writer got a single ack; the test exercised nothing")
	}

	// Post-drain: the handler refuses new work, and Shutdown stays
	// idempotent with the same answer.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query/1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status %d, want 503", rec.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestRaceServeMixedLoad hammers one server with every op class plus
// debug reads and a shutdown race, for the -race tier: four writer
// groups and two snapshot readers against 2 shards, then Shutdown twice
// concurrently while traffic is still arriving.
func TestRaceServeMixedLoad(t *testing.T) {
	s, err := New(Config{Shards: 2, Nodes: 16, Seed: 5, Inflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for o := 0; o < 4; o++ {
		if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(o, o), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", o, resp.StatusCode)
		}
	}

	var stop atomic.Bool
	var g track.Group
	for w := 0; w < 4; w++ {
		obj := w
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 1; !stop.Load(); i++ {
				body := bytes.NewReader([]byte(moveBody(obj, i%16)))
				resp, err := client.Post(ts.URL+"/v1/move", "application/json", body)
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
				qresp, err := client.Get(fmt.Sprintf("%s/v1/query/%d", ts.URL, obj))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, qresp.Body)
				qresp.Body.Close()
			}
		})
	}
	for r := 0; r < 2; r++ {
		g.Go(func() {
			client := &http.Client{Timeout: 5 * time.Second}
			for !stop.Load() {
				for _, path := range []string{"/debug/serve", "/debug/shard/0/debug/live"} {
					resp, err := client.Get(ts.URL + path)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		})
	}

	time.Sleep(30 * time.Millisecond)
	var closers track.Group
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		closers.Go(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = s.Shutdown(ctx)
		})
	}
	closers.Wait()
	stop.Store(true)
	g.Wait()
	if errs[0] != errs[1] {
		t.Fatalf("concurrent Shutdowns disagreed: %v vs %v", errs[0], errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("Shutdown: %v", errs[0])
	}
	checkShards(t, s)
}

// TestServeNewStartsNoGoroutines pins the inline move path: a move runs
// on its handler's goroutine, so New starts nothing per shard.
func TestServeNewStartsNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	s, err := New(Config{Shards: 64, Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	started := goruntime.NumGoroutine() - before
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if started >= 8 {
		t.Fatalf("New over 64 shards started %d goroutines, want fewer than 8", started)
	}
}

// TestRaceServeSameObjectMoves sends concurrent moves of one object,
// for the -race tier: the tracker's per-object lock alone keeps the
// object's operations in order. Every move is acknowledged, the
// directory stays consistent, and a query from every sensor finds the
// object where the tracker says it is.
func TestRaceServeSameObjectMoves(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, Nodes: 36, Seed: 4})
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 0), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish status %d", resp.StatusCode)
	}
	const clients, moves = 8, 40
	codes := make([][]int, clients)
	var g track.Group
	for c := 0; c < clients; c++ {
		g.Go(func() {
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < moves; i++ {
				resp, err := client.Post(ts.URL+"/v1/move", "application/json",
					strings.NewReader(moveBody(1, (c*moves+i)%36)))
				if err != nil {
					codes[c] = append(codes[c], -1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes[c] = append(codes[c], resp.StatusCode)
			}
		})
	}
	g.Wait()
	for c, cs := range codes {
		for i, code := range cs {
			if code != http.StatusOK {
				t.Fatalf("client %d move %d: status %d, want 200", c, i, code)
			}
		}
	}
	checkShards(t, s)
	want, ok := s.Location(1)
	if !ok {
		t.Fatal("object 1 vanished")
	}
	for from := 0; from < 36; from++ {
		var q queryResponse
		if resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/query/1?from=%d", ts.URL, from), "", &q); resp.StatusCode != http.StatusOK {
			t.Fatalf("query from %d: status %d", from, resp.StatusCode)
		}
		if q.Location != int64(want) {
			t.Fatalf("query from %d: location %d, want %d", from, q.Location, want)
		}
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime/track"
)

// soakSecs returns the opt-in soak duration: 0 (skip) unless MOT_SOAK=1,
// 60s by default, overridable through MOT_SOAK_SECS for local tinkering.
func soakSecs(t *testing.T) int {
	t.Helper()
	if os.Getenv("MOT_SOAK") != "1" {
		t.Skip("soak tier is opt-in: set MOT_SOAK=1 (make soak)")
	}
	if raw := os.Getenv("MOT_SOAK_SECS"); raw != "" {
		secs, err := strconv.Atoi(raw)
		if err != nil || secs <= 0 {
			t.Fatalf("MOT_SOAK_SECS=%q: want a positive integer", raw)
		}
		return secs
	}
	return 60
}

// soakP99SLO is the drain-time request-p99 ceiling. Deliberately loose —
// the soak runs on arbitrary CI hardware next to a chaos drill — it
// exists to catch collapse (seconds-long tails from a stuck queue), not
// to pin performance; BENCH_15.json's serve rows do that.
const soakP99SLO = 500 * time.Millisecond

// TestSoakServe is the `make soak` tier: sustained mixed load plus a
// rolling chaos drill against a live motserve for ~60s, then the service
// invariants at quiescence — every object sits at its last acknowledged
// target (a 5xx'd move has no effect), a query from three seeded random
// origins finds it there, and every shard's directory passes core's
// invariant check — and finally a graceful drain under a fresh burst of
// load, after which no acknowledged move is lost, every queue is empty,
// and the request p99 stayed under the (loose) SLO.
func TestSoakServe(t *testing.T) {
	secs := soakSecs(t)
	s, err := New(Config{
		Shards: 4, Nodes: 144, Seed: 11,
		QueueDepth: 256, Inflight: 64,
		ChaosAdmin: true, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	var srvG track.Group
	srvG.Go(func() { _ = s.Serve(ln) })
	defer srvG.Wait()

	const writers = 8
	type objState struct {
		lastAcked int64 // the publish node until the first acked move
		damaged   bool  // saw any 5xx at any point
		acks      int64
	}
	states := make([]*objState, writers)
	root := int64(s.Root())

	var stop atomic.Bool
	var shed atomic.Int64
	var g track.Group
	writer := func(obj int, st *objState) {
		client := &http.Client{Timeout: 10 * time.Second}
		for target := 1; !stop.Load(); target++ {
			to := target % 144
			resp, err := client.Post(base+"/v1/move", "application/json",
				bytes.NewReader([]byte(moveBody(obj, to))))
			if err != nil {
				return
			}
			code := resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case code == http.StatusOK:
				st.lastAcked = int64(to)
				st.acks++
			case code == http.StatusTooManyRequests:
				shed.Add(1)
			case code >= 500:
				// Chaos fault mid-op: not acked, and rolled back.
				st.damaged = true
			}
			// Interleave queries: responses must always be well-formed,
			// whatever the drill is doing.
			qresp, err := client.Get(fmt.Sprintf("%s/v1/query/%d", base, obj))
			if err != nil {
				return
			}
			if qresp.StatusCode == http.StatusOK {
				var q queryResponse
				if err := json.NewDecoder(qresp.Body).Decode(&q); err != nil {
					panic(fmt.Sprintf("query %d: malformed 200 body: %v", obj, err))
				}
			} else if qresp.StatusCode >= 500 {
				st.damaged = true
			}
			_, _ = io.Copy(io.Discard, qresp.Body)
			qresp.Body.Close()
		}
	}
	for w := 0; w < writers; w++ {
		obj := 1000 + w
		st := &objState{lastAcked: int64(w)}
		states[w] = st
		resp, err := http.Post(base+"/v1/publish", "application/json",
			bytes.NewReader([]byte(publishBody(obj, w))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("publish %d: status %d", obj, resp.StatusCode)
		}
		g.Go(func() { writer(obj, st) })
	}

	// Rolling chaos drill: fail a non-root sensor, let traffic grind on
	// it, recover, move on. Runs the whole soak and always ends with the
	// sensor recovered.
	g.Go(func() {
		client := &http.Client{Timeout: 10 * time.Second}
		drill := func(action string, node int64) {
			resp, err := client.Post(fmt.Sprintf("%s/v1/%s/%d", base, action, node), "application/json", nil)
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		for victim := int64(1); !stop.Load(); victim++ {
			node := victim % 144
			if node == root {
				continue
			}
			drill("fail", node)
			time.Sleep(200 * time.Millisecond)
			drill("recover", node)
			time.Sleep(300 * time.Millisecond)
		}
	})

	time.Sleep(time.Duration(secs) * time.Second)
	stop.Store(true)
	g.Wait()

	// Invariants at quiescence: every object is where its last ack put
	// it, and queries from anywhere find it there.
	checkObjects := func() {
		t.Helper()
		for w, st := range states {
			obj := core.ObjectID(1000 + w)
			if loc, ok := s.Location(obj); !ok || int64(loc) != st.lastAcked {
				t.Errorf("object %d at %d (published %v), want its last acked target %d", obj, loc, ok, st.lastAcked)
			}
		}
		checkShards(t, s)
	}
	checkObjects()
	rng := rand.New(rand.NewSource(11))
	client := &http.Client{Timeout: 10 * time.Second}
	for w, st := range states {
		for i := 0; i < 3; i++ {
			from := rng.Intn(144)
			resp, err := client.Get(fmt.Sprintf("%s/v1/query/%d?from=%d", base, 1000+w, from))
			if err != nil {
				t.Fatal(err)
			}
			var q queryResponse
			err = json.NewDecoder(resp.Body).Decode(&q)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || q.Location != st.lastAcked {
				t.Errorf("query of object %d from %d: status %d location %d (%v), want %d",
					1000+w, from, resp.StatusCode, q.Location, err, st.lastAcked)
			}
		}
	}

	// Drain mid-flight under a fresh burst, exactly as SIGTERM would.
	stop.Store(false)
	for w, st := range states {
		obj := 1000 + w
		g.Go(func() { writer(obj, st) })
	}
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stop.Store(true)
	g.Wait()

	snap := s.Snapshot()
	for _, row := range snap.ShardStatus {
		if row.QueueDepth != 0 {
			t.Errorf("shard %d: %d moves still queued after drain", row.ID, row.QueueDepth)
		}
	}
	checkObjects()
	var acked, clean int64
	for _, st := range states {
		acked += st.acks
		if !st.damaged {
			clean++
		}
	}
	if acked == 0 {
		t.Fatal("soak acknowledged no moves at all")
	}
	if p99 := time.Duration(snap.Request.Total.P99Ns); p99 > soakP99SLO {
		t.Errorf("request p99 %v blew the %v soak SLO", p99, soakP99SLO)
	}
	t.Logf("soak: %ds, %d acked moves (%d clean objects of %d), %d shed (429), %.0f ops/sec, p50 %v p99 %v",
		secs, acked, clean, writers, shed.Load(), snap.OpsPerSec,
		time.Duration(snap.Request.Total.P50Ns), time.Duration(snap.Request.Total.P99Ns))
}

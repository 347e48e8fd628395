package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/overlay"
	"repro/internal/runtime"
	"repro/internal/serve"
)

// replaySpec names a workload's substrate size and op stream for the
// in-process layer replays.
type replaySpec struct {
	nodes int
	// ops returns the publishes and the ops that follow on grid g.
	ops func(g *graph.Graph) (pubs, ops []op, err error)
}

// pairCap bounds the Dist argument pairs the counting oracle records for
// the graph.dist_ns timing.
const pairCap = 1 << 16

// countingOracle wraps the replay substrate's distance oracle: it counts
// every Dist call, records the first pairCap argument pairs, and times
// one call in 64 as a graph.dist span.
type countingOracle struct {
	graph.DistanceOracle
	tr    *tracer
	calls atomic.Int64
	pairs [][2]graph.NodeID
}

func (c *countingOracle) Dist(u, v graph.NodeID) float64 {
	k := c.calls.Add(1)
	if k <= pairCap {
		c.pairs[k-1] = [2]graph.NodeID{u, v}
	}
	if c.tr == nil || k%64 != 0 {
		return c.DistanceOracle.Dist(u, v)
	}
	start := c.tr.now()
	d := c.DistanceOracle.Dist(u, v)
	c.tr.child("graph.dist", start, c.tr.now())
	return d
}

// countingOverlay wraps the hierarchy handed to runtime.New and
// core.New: it counts and times DPath and hands out the counting oracle.
type countingOverlay struct {
	overlay.Overlay
	m     *countingOracle
	tr    *tracer
	calls atomic.Int64
}

func (c *countingOverlay) Metric() graph.DistanceOracle { return c.m }

func (c *countingOverlay) DPath(u graph.NodeID) overlay.Path {
	c.calls.Add(1)
	start := c.tr.now()
	p := c.Overlay.DPath(u)
	c.tr.child("hier.dpath", start, c.tr.now())
	return p
}

// opTimes collects per-call wall times (ns) by op kind.
type opTimes [3][]float64

func (t *opTimes) medianUS(k kind) float64 { return median(t[k]) / 1e3 }

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay runs the op stream through each layer's public entry points in
// process and records the per-layer metrics into m: serve's HTTP handler
// (no network), the goroutine runtime and the sequential core directory
// (both over the counting wrappers), then hier.DPath and graph Dist on
// the inputs the replays produced. Every query answer is checked against
// the stream's ground truth, and the directory's invariants afterwards.
func replay(rs replaySpec, tr *tracer, m map[string]float64) error {
	g := graph.NearSquareGrid(rs.nodes)
	pubs, ops, err := rs.ops(g)
	if err != nil {
		return err
	}
	truth := func() []int32 {
		loc := make([]int32, len(pubs))
		for _, p := range pubs {
			loc[p.obj] = p.node
		}
		return loc
	}
	// serve builds its own substrate; it is shut down and collected
	// before the replay builds the one the other layers share.
	if err := replayServe(rs.nodes, pubs, ops, truth(), tr, m); err != nil {
		return err
	}
	goruntime.GC()

	start := time.Now()
	var dm graph.DistanceOracle
	if rs.nodes >= serve.OracleMinNodes {
		o := graph.NewOracle(g, graph.OracleConfig{Seed: 1})
		m["graph.oracle_bytes_per_node"] = float64(o.Bytes()) / float64(g.N())
		dm = o
	} else {
		mt := graph.NewMetric(g)
		mt.Precompute(0)
		m["graph.oracle_bytes_per_node"] = float64(8 * g.N()) // one float64 row per node
		dm = mt
	}
	m["graph.substrate_build_s"] = time.Since(start).Seconds()

	start = time.Now()
	hs, err := hier.Build(g, dm, hier.Config{Seed: 1})
	if err != nil {
		return fmt.Errorf("building the replay hierarchy: %w", err)
	}
	m["hier.build_s"] = time.Since(start).Seconds()

	co := &countingOracle{DistanceOracle: dm, tr: tr, pairs: make([][2]graph.NodeID, pairCap)}
	cov := &countingOverlay{Overlay: hs, m: co, tr: tr}
	if err := replayRuntime(g, cov, pubs, ops, truth(), tr, m); err != nil {
		return err
	}
	// What serve adds to a move on top of the runtime op it wraps.
	m["serve.self_move_us"] = m["serve.handler_move_us"] - m["runtime.move_us"]
	if err := replayCore(cov, pubs, ops, truth(), tr, m); err != nil {
		return err
	}

	// hier.DPath on every replayed op's sensor, and graph Dist on the
	// hop pairs the replays recorded, each timed alone.
	stations := 0
	for _, o := range ops {
		stations += len(overlay.Flatten(hs.DPath(graph.NodeID(o.node))))
	}
	m["hier.stations_per_path"] = float64(stations) / float64(len(ops))
	t0 := time.Now()
	for _, o := range ops {
		hs.DPath(graph.NodeID(o.node))
	}
	m["hier.dpath_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(ops))
	pairs := co.pairs[:min(co.calls.Load(), pairCap)]
	t0 = time.Now()
	for _, p := range pairs {
		dm.Dist(p[0], p[1])
	}
	m["graph.dist_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pairs))
	return nil
}

// discardWriter is a reusable in-memory http.ResponseWriter.
type discardWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *discardWriter) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body.Reset()
}

// replayServe sends the stream through an in-process serve.Server's
// handler, with no network or client in the way.
func replayServe(nodes int, pubs, ops []op, loc []int32, tr *tracer, m map[string]float64) error {
	srv, err := serve.New(serve.Config{Nodes: nodes})
	if err != nil {
		return err
	}
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	// Requests are built up front so the measured loop allocates only
	// what the handler does.
	build := func(o op) *http.Request {
		var r *http.Request
		switch o.kind {
		case kPublish:
			r, _ = http.NewRequest(http.MethodPost, "/v1/publish", bytes.NewReader(fmt.Appendf(nil, `{"object":%d,"node":%d}`, o.obj, o.node)))
		case kMove:
			r, _ = http.NewRequest(http.MethodPost, "/v1/move", bytes.NewReader(fmt.Appendf(nil, `{"object":%d,"to":%d}`, o.obj, o.node)))
		default:
			r, _ = http.NewRequest(http.MethodGet, "/v1/query/"+strconv.Itoa(int(o.obj))+"?from="+strconv.Itoa(int(o.node)), nil)
		}
		return r
	}
	pubReqs := make([]*http.Request, len(pubs))
	for i, o := range pubs {
		pubReqs[i] = build(o)
	}
	reqs := make([]*http.Request, len(ops))
	for i, o := range ops {
		reqs[i] = build(o)
	}
	w := &discardWriter{h: http.Header{}}
	for i, r := range pubReqs {
		w.reset()
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return fmt.Errorf("serve replay: publish of object %d answered HTTP %d", pubs[i].obj, w.status)
		}
	}
	var times opTimes
	before := mallocs()
	for i, r := range reqs {
		o := ops[i]
		w.reset()
		sp := tr.begin("serve.http", int64(i))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		times[o.kind] = append(times[o.kind], float64(time.Since(t0).Nanoseconds()))
		tr.end(sp)
		if w.status != http.StatusOK {
			return fmt.Errorf("serve replay: %s of object %d answered HTTP %d", o.kind, o.obj, w.status)
		}
		if o.kind == kMove {
			loc[o.obj] = o.node
		} else if o.kind == kQuery {
			at, ok := location(w.body.Bytes())
			if !ok {
				return fmt.Errorf("serve replay: no location in query answer %q", w.body.Bytes())
			}
			if at != loc[o.obj] {
				return violation{fmt.Errorf("serve replay: query of object %d answered %d, ground truth %d", o.obj, at, loc[o.obj])}
			}
		}
	}
	m["serve.allocs_per_op"] = float64(mallocs()-before) / float64(len(ops))
	m["serve.handler_move_us"] = times.medianUS(kMove)
	m["serve.handler_query_us"] = times.medianUS(kQuery)
	return nil
}

// location reads the "location" field of a query answer without
// allocating, so the replay's allocation count stays the handler's.
func location(body []byte) (int32, bool) {
	_, rest, ok := bytes.Cut(body, []byte(`"location":`))
	if !ok || len(rest) == 0 {
		return 0, false
	}
	var v int32
	n := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int32(c-'0')
		n++
	}
	return v, n > 0
}

// directory is the operation API runtime.Tracker and core.Directory
// share.
type directory interface {
	Publish(core.ObjectID, graph.NodeID) error
	Move(core.ObjectID, graph.NodeID) error
	Query(graph.NodeID, core.ObjectID) (graph.NodeID, float64, error)
}

// timeOps publishes pubs on d, calls mid, then runs ops on d. It records
// one span per call named <layer>.<kind>, checks every query against
// loc, and returns the per-kind call times and the heap allocations per
// op of the ops.
func timeOps(layer string, d directory, pubs, ops []op, loc []int32, tr *tracer, mid func()) (opTimes, float64, error) {
	var times opTimes
	names := [...]string{layer + ".publish", layer + ".move", layer + ".query"}
	call := func(i int, o op) error {
		var at graph.NodeID
		var err error
		sp := tr.begin(names[o.kind], int64(i))
		t0 := time.Now()
		switch o.kind {
		case kPublish:
			err = d.Publish(core.ObjectID(o.obj), graph.NodeID(o.node))
		case kMove:
			err = d.Move(core.ObjectID(o.obj), graph.NodeID(o.node))
		case kQuery:
			at, _, err = d.Query(graph.NodeID(o.node), core.ObjectID(o.obj))
		}
		times[o.kind] = append(times[o.kind], float64(time.Since(t0).Nanoseconds()))
		tr.end(sp)
		switch {
		case err != nil:
			return fmt.Errorf("%s replay: %s of object %d: %w", layer, o.kind, o.obj, err)
		case o.kind == kMove:
			loc[o.obj] = o.node
		case o.kind == kQuery && int32(at) != loc[o.obj]:
			return violation{fmt.Errorf("%s replay: query of object %d answered %d, ground truth %d", layer, o.obj, at, loc[o.obj])}
		}
		return nil
	}
	for i, o := range pubs {
		if err := call(i, o); err != nil {
			return times, 0, err
		}
	}
	mid()
	before := mallocs()
	for i, o := range ops {
		if err := call(i, o); err != nil {
			return times, 0, err
		}
	}
	return times, float64(mallocs()-before) / float64(len(ops)), nil
}

// replayRuntime replays the stream on a goroutine-runtime tracker over
// the counting overlay.
func replayRuntime(g *graph.Graph, cov *countingOverlay, pubs, ops []op, loc []int32, tr *tracer, m map[string]float64) error {
	t := runtime.New(g, cov)
	defer t.Stop()
	var cost0 float64
	var dist0, dpath0 int64
	times, allocs, err := timeOps("runtime", t, pubs, ops, loc, tr, func() {
		cost0, dist0, dpath0 = t.Cost(), cov.m.calls.Load(), cov.calls.Load()
	})
	if err != nil {
		return err
	}
	n := float64(len(ops))
	m["runtime.allocs_per_op"] = allocs
	m["runtime.cost_per_op"] = (t.Cost() - cost0) / n
	m["runtime.dist_calls_per_op"] = float64(cov.m.calls.Load()-dist0) / n
	m["runtime.dpath_calls_per_op"] = float64(cov.calls.Load()-dpath0) / n
	m["runtime.publish_us"] = times.medianUS(kPublish)
	m["runtime.move_us"] = times.medianUS(kMove)
	m["runtime.query_us"] = times.medianUS(kQuery)
	return nil
}

// replayCore replays the stream on the sequential MOT directory over the
// counting overlay, then checks its invariants.
func replayCore(cov *countingOverlay, pubs, ops []op, loc []int32, tr *tracer, m map[string]float64) error {
	d := core.New(cov, core.Config{})
	var dist0 int64
	times, allocs, err := timeOps("core", d, pubs, ops, loc, tr, func() { dist0 = cov.m.calls.Load() })
	if err != nil {
		return err
	}
	m["core.allocs_per_op"] = allocs
	m["core.dist_calls_per_op"] = float64(cov.m.calls.Load()-dist0) / float64(len(ops))
	m["core.move_us"] = times.medianUS(kMove)
	m["core.query_us"] = times.medianUS(kQuery)
	meter := d.Meter()
	m["core.maint_ratio"] = meter.MaintRatio()
	m["core.query_ratio"] = meter.QueryRatio()
	if err := d.CheckInvariants(); err != nil {
		return violation{fmt.Errorf("core replay: %w", err)}
	}
	return nil
}

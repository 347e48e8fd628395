package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/obs/live"
	"repro/internal/serve"
)

// segments is the number of reference-rate and of closed-loop segments
// in a run. They alternate, each seconds/20 long, so both metrics sample
// the whole run: on a shared host the speed drifts over seconds, and a
// run that measured one after the other would give each metric a
// different stretch of it.
const segments = 10

// serveRun is the state of one serving workload run. The open-loop
// phases drive the first half of the objects and the closed-loop
// segments the second half, each from its own stream, so how many ops
// a closed segment gets through never shifts the open-loop inputs.
type serveRun struct {
	w       *workload
	opt     options
	open    *stream
	closed  *stream
	srv     *server
	l       *loader
	phase   uint64
	initial []int32
	all     []rec // every request after the preload, sweep included
	sent    int   // requests sent, preload included
}

// openPhase runs one open-loop phase on the next stretch of the stream
// with its own seeded arrival schedule.
func (r *serveRun) openPhase(rate float64, dur time.Duration) []rec {
	r.phase++
	rng := rand.New(rand.NewSource(subSeed(r.opt.seed, 100+r.phase)))
	recs := r.l.open(r.open.next, rate, dur, rng)
	r.keep(recs)
	return recs
}

func (r *serveRun) keep(recs []rec) {
	r.all = append(r.all, recs...)
	r.sent += len(recs)
}

// start launches motserve n times (setup_s is the median of their
// start-up times), keeps the last one, and preloads every object.
func (r *serveRun) start(n int) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		s, err := startServer(r.opt.motserve, r.w.serve)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < n-1 {
			if err := s.stop(); err != nil {
				return nil, violation{err}
			}
			continue
		}
		r.srv = s
	}
	r.l = newLoader(r.srv.base, conns())
	pubs := append(r.open.publishes(), r.closed.publishes()...)
	r.initial = make([]int32, len(pubs))
	for _, p := range pubs {
		r.initial[p.obj] = p.node
	}
	recs := r.l.list(pubs)
	r.sent += len(recs)
	for _, p := range recs {
		if !p.ok() {
			return nil, violation{fmt.Errorf("preload: publish of object %d answered HTTP %d", p.obj, p.status)}
		}
	}
	return setups, nil
}

// finish sweeps every object at quiescence, checks every answer, reads
// the server's peak memory and drains it with SIGTERM.
func (r *serveRun) finish(m map[string]float64) error {
	sweep := make([]op, len(r.initial))
	for o := range sweep {
		sweep[o] = op{kind: kQuery, obj: int32(o), node: -1}
	}
	r.keep(r.l.list(sweep))
	var status serve.Status
	if err := r.srv.getJSON("/debug/serve", &status); err != nil {
		return err
	}
	moves, coalesced := 0, 0
	for i := range r.all {
		if r.all[i].kind == kMove && r.all[i].ok() {
			moves++
			if r.all[i].coalesced {
				coalesced++
			}
		}
	}
	m["serve.rejected_share"] = float64(status.Rejected) / float64(r.sent)
	if moves > 0 {
		m["serve.coalesced_share"] = float64(coalesced) / float64(moves)
	}
	rss, err := peakRSSMB(r.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	m["peak_rss_mb"] = rss
	r.l.close()
	if err := r.srv.stop(); err != nil {
		return violation{err}
	}
	if err := checkServed(r.initial, r.all); err != nil {
		return violation{err}
	}
	return nil
}

func (r *serveRun) failed() int {
	n := 0
	for i := range r.all {
		if !r.all[i].ok() {
			n++
		}
	}
	return n
}

// runServe runs a serving workload. Untraced it measures the end-to-end
// metrics; traced it runs one reference phase untraced and one traced
// on the same server, then replays the stream through each layer.
func runServe(w *workload, opt options) (*result, error) {
	spec := w.serve
	g := graph.NearSquareGrid(spec.nodes)
	half := spec.objects / 2
	r := &serveRun{w: w, opt: opt,
		open:   newStream(spec, g, subSeed(opt.seed, 1), 0, half),
		closed: newStream(spec, g, subSeed(opt.seed, 2), half, spec.objects),
	}
	res := &result{Workload: w.name, Metrics: map[string]float64{}}
	m := res.Metrics
	setupRuns := setupRuns
	if opt.traced {
		setupRuns = 1
	}
	setups, err := r.start(setupRuns)
	if r.srv != nil {
		defer r.srv.kill()
	}
	if err != nil {
		return res, err
	}
	m["setup_s"] = median(setups)
	segment := time.Duration(opt.seconds * float64(time.Second) / (2 * segments))
	r.openPhase(spec.rate, segment)

	var segs [][]rec
	var replayPubs []op
	if opt.traced {
		untraced := r.openPhase(spec.rate, segments*segment)
		// The replay publishes every object where the traced phase found
		// it and then replays exactly the traced phase's ops.
		replayPubs = r.open.publishes()
		r.l.tr = opt.tr
		traced := r.openPhase(spec.rate, segments*segment)
		r.l.tr = nil
		m["trace.overhead_share"] = percentile(latencies(traced, nil), 0.5)/percentile(latencies(untraced, nil), 0.5) - 1
		if err := r.scrape(m, traced); err != nil {
			return res, err
		}
		segs = splitByDue(traced, segments)
	} else {
		var thr []float64
		for i := 0; i < segments; i++ {
			segs = append(segs, r.openPhase(spec.rate, segment))
			recs, t := r.l.closed(r.closed.next, segment)
			r.keep(recs)
			thr = append(thr, t)
		}
		m["ops_s"] = median(thr)
	}
	var ref []rec
	for _, s := range segs {
		ref = append(ref, s...)
	}
	// p50 is the median over segments of each segment's p50. The tail
	// comes from a few server GC cycles per run, each stalling a burst
	// of requests, so p99 pools all segments rather than taking a median
	// of per-segment values that each see zero or one stall.
	for _, k := range []struct {
		prefix string
		kind   *kind
	}{{"", nil}, {"move_", ptr(kMove)}, {"query_", ptr(kQuery)}} {
		var p50 []float64
		for _, s := range segs {
			if lat := latencies(s, k.kind); len(lat) > 0 {
				p50 = append(p50, percentile(lat, 0.5)/1e6)
			}
		}
		m[k.prefix+"p50_ms"] = median(p50)
		m[k.prefix+"p99_ms"] = percentile(latencies(ref, k.kind), 0.99) / 1e6
	}
	var late, wait []float64
	for i := range ref {
		late = append(late, float64(ref[i].handoff-ref[i].due))
		wait = append(wait, float64(ref[i].pickup-ref[i].handoff))
	}
	m["client.lateness_p50_ms"] = percentile(late, 0.5) / 1e6
	m["client.lateness_p99_ms"] = percentile(late, 0.99) / 1e6
	m["client.conn_wait_p99_ms"] = percentile(wait, 0.99) / 1e6

	if err := r.finish(m); err != nil {
		return res, err
	}
	res.Attempted, res.Failed = r.sent, r.failed()
	m["fail_share"] = float64(res.Failed) / float64(res.Attempted)
	if m["client.lateness_p50_ms"] > latenessMax.Seconds()*1e3 {
		return res, violation{fmt.Errorf("invalid run: generator lateness p50 %.3fms exceeds %v", m["client.lateness_p50_ms"], latenessMax)}
	}
	if opt.traced {
		ops := make([]op, len(ref))
		for i := range ref {
			ops[i] = ref[i].op
		}
		rp := replaySpec{nodes: spec.nodes, ops: func(*graph.Graph) ([]op, []op, error) {
			return replayPubs, ops, nil
		}}
		if err := replay(rp, opt.tr, m); err != nil {
			return res, err
		}
		// The client's move p50 against the layers under it: the network
		// and HTTP client, serve's own handler work, and the runtime op.
		m["trace.residual_move_us"] = m["move_p50_ms"]*1e3 -
			(m["net.overhead_move_p50_us"] + m["serve.self_move_us"] + m["runtime.move_us"])
	}
	return res, nil
}

// scrape reads the server's request and shard-tracker histograms after
// the traced phase. They cover the server's lifetime, which the
// reference-rate phases dominate.
func (r *serveRun) scrape(m map[string]float64, traced []rec) error {
	var status serve.Status
	if err := r.srv.getJSON("/debug/serve", &status); err != nil {
		return err
	}
	class := func(s live.Snapshot, name string) live.OpSnapshot {
		for _, op := range s.Ops {
			if op.Class == name {
				return op
			}
		}
		return live.OpSnapshot{}
	}
	mv, q := class(status.Request, "move"), class(status.Request, "query")
	m["serve.request_move_p50_us"] = float64(mv.P50Ns) / 1e3
	m["serve.request_move_p99_us"] = float64(mv.P99Ns) / 1e3
	m["serve.request_query_p50_us"] = float64(q.P50Ns) / 1e3
	m["serve.request_query_p99_us"] = float64(q.P99Ns) / 1e3
	var shardMove, shardP99 []float64
	for i := range status.ShardStatus {
		var snap live.Snapshot
		if err := r.srv.getJSON(fmt.Sprintf("/debug/shard/%d/debug/live", i), &snap); err != nil {
			return err
		}
		shardMove = append(shardMove, float64(class(snap, "move").P50Ns)/1e3)
		shardP99 = append(shardP99, float64(snap.Total.P99Ns)/1e3)
	}
	m["serve.queue_wait_p50_us"] = m["serve.request_move_p50_us"] - median(shardMove)
	m["runtime.shard_op_p99_us"] = median(shardP99)

	rtt := func(k kind) float64 {
		var xs []float64
		for i := range traced {
			if traced[i].kind == k && traced[i].ok() {
				xs = append(xs, float64(traced[i].done-traced[i].pickup))
			}
		}
		return percentile(xs, 0.5) / 1e3
	}
	m["client.rtt_move_p50_us"] = rtt(kMove)
	m["client.rtt_query_p50_us"] = rtt(kQuery)
	m["net.overhead_move_p50_us"] = m["client.rtt_move_p50_us"] - m["serve.request_move_p50_us"]
	m["net.overhead_query_p50_us"] = m["client.rtt_query_p50_us"] - m["serve.request_query_p50_us"]
	return nil
}

// latencies returns the due-to-done latencies (ns) of recs of kind k
// (all kinds for nil).
func latencies(recs []rec, k *kind) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		if k == nil || recs[i].kind == *k {
			out = append(out, recs[i].latency())
		}
	}
	return out
}

// splitByDue cuts an open-loop phase into n segments of equal duration.
func splitByDue(recs []rec, n int) [][]rec {
	if len(recs) == 0 {
		return nil
	}
	lo, hi := recs[0].due, recs[len(recs)-1].due+1
	out := make([][]rec, n)
	for i := range recs {
		s := int(int64(n) * (recs[i].due - lo) / (hi - lo))
		out[s] = append(out[s], recs[i])
	}
	return out
}

func ptr[T any](v T) *T { return &v }

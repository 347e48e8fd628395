// Package bench runs the substrate and harness benchmark suite behind
// `make bench-json` / `motsim -benchjson` and renders it as a
// machine-readable JSON artifact (BENCH_15.json; earlier baselines such
// as BENCH_10.json stay committed as trajectory points) so CI can track
// the perf trajectory release over release. Rows marked Pinned are
// enforced by the regression gate (internal/bench/diff behind
// `make bench-gate`): >15% ns/op growth or any allocs/op growth against
// the committed baseline fails CI.
//
// The suite pins the claims the frozen-metric work makes: the frozen
// Dist path is allocation-free and much cheaper than the lazy
// RWMutex+map path, Precompute's scratch reuse keeps the all-pairs fill
// lean, and the experiments substrate cache turns repeated same-topology
// sweep cells from O(n²·log n) rebuilds into lookups (cells/sec,
// cache-on vs cache-off, on a 16×16-grid sweep) — plus the PR-6 oracle
// claims: the sketch oracle builds far faster than an exact Precompute
// at equal n with O(n·polylog n) bytes/node instead of 8n, its Dist
// reads stay cheap, and a full 10k-node oracle-mode scale cell runs at
// a usable cells/sec without ever freezing an n×n table — and the PR-8
// churn claim: sustained-churn schedule cells/sec with the incremental
// repair engine's recovery cost a small ratio of the rebuild baseline's
// — and the PR-9 live-telemetry overhead contract: live/nil-sink pins
// the disabled fast path at 0 allocs/op, and runtime/ops-live-on vs
// -off measure enabled overhead against a ≤10% target, not met at the
// current op cost (BENCH_15.json records 22.1%; the gate checks each
// row's own ns/op, not the ratio), on a runtime Move+Query round
// trip (the measured gap rides along as overhead_pct) — and the PR-10
// serving rows: serve/ops-publish|move|query each pin one full HTTP
// round trip through the sharded motserve front end (mux dispatch,
// shard hash, inflight window, tracker op, ack) with ops_per_sec and the
// server-side p50/p99 riding along as extras — and the two oracle-tier
// layers under the scale cell: graph/pair-dist-10000 pins a warmed
// PairSearch.Dist on uniform pairs of the 10k grid (the sampled exact
// audit's unit of work) at 0 allocs/op, and hier/build-10000 and
// hier/build-16384 track hier.Build over a prebuilt sketch oracle, the
// first with the scale harness's configuration and the second with
// motserve's (sigma derived, so it includes the doubling estimate). The
// build rows are unpinned: their allocs/op drift between runs, because
// the oracle's ball searches (Oracle.Scan) draw their scratch from a
// sync.Pool that GC can empty.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/obs/live"
	motruntime "repro/internal/runtime"
	"repro/internal/serve"
)

// Result is one benchmark's outcome in flat, diff-friendly units.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Pinned marks the benchmarks the CI regression gate (cmd/benchdiff,
	// `make bench-gate`) enforces: >15% ns/op or any allocs/op growth
	// against the committed BENCH_*.json baseline fails the build.
	// Unpinned rows are tracked for the trajectory but tolerated.
	Pinned bool               `json:"pinned,omitempty"`
	Extra  map[string]float64 `json:"extra,omitempty"`
}

// Report is the full artifact. Schema names the layout so downstream
// tooling can detect format changes.
type Report struct {
	Schema     string   `json:"schema"`
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
}

// sink defeats dead-code elimination in the measurement loops.
var sink float64

// best reruns measure and keeps the fastest trial. Pinned contract rows
// feed the CI regression gate, where a single sample of a sub-10ns loop
// can swing 30%+ on scheduler or frequency jitter alone; the minimum of
// a few trials converges on the true cost of the code, which is what
// the gate's 15% tolerance is meant to police.
func best(trials int, measure func() Result) Result {
	res := measure()
	for i := 1; i < trials; i++ {
		if r := measure(); r.NsPerOp < res.NsPerOp {
			res = r
		}
	}
	return res
}

func toResult(name string, r testing.BenchmarkResult, extra map[string]float64) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Extra:       extra,
	}
}

// distFrozen measures the lock-free frozen read path (the acceptance
// criterion: 0 allocs/op).
func distFrozen() Result {
	g := graph.Grid(32, 32)
	m := graph.NewMetric(g)
	m.Precompute(0)
	n := g.N()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += m.Dist(graph.NodeID(i%n), graph.NodeID((i*31)%n))
		}
		sink = acc
	})
	res := toResult("metric/dist-frozen", r, nil)
	res.Pinned = true
	return res
}

// distLazy measures the pre-freeze RWMutex+map path for comparison; it
// touches only a few source rows so the metric never auto-freezes.
func distLazy() Result {
	g := graph.Grid(32, 32)
	m := graph.NewMetric(g)
	n := g.N()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += m.Dist(graph.NodeID(i%8), graph.NodeID((i*31)%n))
		}
		sink = acc
	})
	return toResult("metric/dist-lazy", r, nil)
}

// precompute measures a cold all-pairs fill + freeze of a 16×16 grid.
func precompute() Result {
	g := graph.Grid(16, 16)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := graph.NewMetric(g)
			m.Precompute(0)
		}
	})
	return toResult("metric/precompute-256", r, nil)
}

// sweep measures a 16×16-grid cost-ratio sweep (4 seeded cells) with the
// substrate cache on or off, reporting cells/sec. The cache is reset
// first either way, so the cache-on number includes one cold build
// amortized over all measured cells.
func sweep(name string, disable bool) Result {
	cfg := experiments.CostRatioConfig{
		Sizes:                 []int{256},
		Objects:               6,
		MovesPerObject:        30,
		Queries:               20,
		Seeds:                 4,
		LoadBalance:           true,
		Workers:               1,
		DisableSubstrateCache: disable,
	}
	cells := len(cfg.Sizes) * cfg.Seeds
	experiments.ResetSubstrateCache()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunCostRatio(cfg); err != nil {
				panic(err)
			}
		}
	})
	extra := map[string]float64{
		"cells":         float64(cells),
		"cells_per_sec": float64(r.N*cells) / r.T.Seconds(),
	}
	return toResult(name, r, extra)
}

// oracleBuild measures a cold sketch-oracle build at size n against the
// exact Precompute at the same size (exactToo gates the exact leg so the
// comparison stays affordable: at 10k+ the exact build is the wall being
// measured around, not a baseline worth re-paying every run). Extra
// reports bytes/node for the oracle (the O(n·polylog n) memory claim;
// the exact table is always 8n bytes/node) plus the published stretch.
func oracleBuild(n int, exactToo bool) []Result {
	g := graph.NearSquareGrid(n)
	var out []Result
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := graph.NewOracle(g, graph.OracleConfig{})
			sink = o.Stretch()
		}
	})
	o := graph.NewOracle(g, graph.OracleConfig{})
	out = append(out, toResult(fmt.Sprintf("oracle/build-%d", n), r, map[string]float64{
		"bytes_per_node": float64(o.Bytes()) / float64(n),
		"stretch":        o.Stretch(),
		"landmarks":      float64(o.Landmarks()),
		"ball_k":         float64(o.BallK()),
	}))
	if exactToo {
		re := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := graph.NewMetric(g)
				m.Precompute(0)
			}
		})
		out = append(out, toResult(fmt.Sprintf("oracle/exact-precompute-%d", n), re, map[string]float64{
			"bytes_per_node": float64(n) * 8,
		}))
	}
	return out
}

// oracleDist measures the oracle's far-pair Dist read (sketch miss →
// landmark scan), the counterpart of metric/dist-frozen.
func oracleDist() Result {
	g := graph.NearSquareGrid(1024)
	o := graph.NewOracle(g, graph.OracleConfig{})
	n := g.N()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc += o.Dist(graph.NodeID(i%n), graph.NodeID((i*31)%n))
		}
		sink = acc
	})
	res := toResult("oracle/dist-1024", r, map[string]float64{"stretch": o.Stretch()})
	res.Pinned = true
	return res
}

// pairDist measures the sampled exact audit's unit of work: a
// PairSearch.Dist on seeded uniform pairs of the 10k-node grid the
// scale cells run on. The search is warmed on every pair first, so its
// scratch has grown to the largest search and the row pins 0 allocs/op.
func pairDist() Result {
	const n = 10000
	g := graph.NearSquareGrid(n)
	ps := graph.NewPairSearch(g)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]graph.NodeID, 256)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		ps.Dist(pairs[i][0], pairs[i][1])
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		acc := 0.0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			acc += ps.Dist(p[0], p[1])
		}
		sink = acc
	})
	res := toResult("graph/pair-dist-10000", r, nil)
	res.Pinned = true
	return res
}

// hierBuild measures hier.Build over a prebuilt n-node sketch oracle.
// The oracle is built outside the timed loop, so the row isolates the
// hierarchy's ball searches and MIS levels, plus the doubling estimate
// when cfg derives sigma.
func hierBuild(n int, ocfg graph.OracleConfig, cfg hier.Config) Result {
	g := graph.NearSquareGrid(n)
	o := graph.NewOracle(g, ocfg)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hier.Build(g, o, cfg); err != nil {
				panic(err)
			}
		}
	})
	return toResult(fmt.Sprintf("hier/build-%d", n), r, nil)
}

// scaleCell measures one full 10k-node oracle-mode scale cell (oracle +
// hierarchy build and workload replay, substrate cache reset first), the
// cells/sec number the 10k+ acceptance criterion tracks.
func scaleCell() Result {
	cfg := experiments.ScaleConfig{Sizes: []int{10000}, Workers: 1}
	experiments.ResetSubstrateCache()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.ResetSubstrateCache()
			if _, err := experiments.RunScale(cfg); err != nil {
				panic(err)
			}
		}
	})
	return toResult("scale/10k-oracle-cell", r, map[string]float64{
		"cells_per_sec": float64(r.N) / r.T.Seconds(),
	})
}

// churnCell measures the sustained-churn tier at small n (the `make
// churn` workload shape), reporting schedule cells/sec plus the
// repair-vs-rebuild recovery ratio — the PR-8 acceptance number CI
// tracks: incremental hier.Repair must stay well under the
// rebuild-from-scratch baseline on the identical seeded schedule.
func churnCell() Result {
	cfg := experiments.ChurnConfig{
		BaseSeed:       7,
		Size:           64,
		Objects:        5,
		ChurnRate:      0.05,
		Epochs:         3,
		Schedules:      3,
		Workers:        1,
		DisableRuntime: true,
	}
	experiments.ResetSubstrateCache()
	var last *experiments.ChurnResult
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunChurn(cfg)
			if err != nil {
				panic(err)
			}
			last = res
		}
	})
	ratio := 0.0
	for i := range last.Schedules {
		ratio += last.Schedules[i].RecoveryRatio()
	}
	ratio /= float64(len(last.Schedules))
	return toResult("churn/64-repair", r, map[string]float64{
		"cells_per_sec":         float64(r.N*cfg.Schedules) / r.T.Seconds(),
		"repair_rebuild_ratio":  ratio,
		"availability_schedule": last.Schedules[0].Availability(),
	})
}

// liveNilSink measures the disabled live-telemetry fast path in
// isolation: a Start/Observe pair on a nil *Recorder. The pin is the
// PR-9 overhead contract's first half — live-off must stay a pointer
// test, 0 allocs/op.
func liveNilSink() Result {
	var rec *live.Recorder
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := rec.Start()
			rec.Observe(live.ClassMove, st, i, nil)
		}
	})
	res := toResult("live/nil-sink", r, nil)
	res.Pinned = true
	return res
}

// runtimeOps measures one Move+Query round trip on the message-passing
// runtime over an 8×8 grid, with live telemetry off (nil sink) or on —
// the second half of the overhead contract, whose target is live-on
// within 10% ns/op of live-off (not met at the current op cost). Run()
// stamps the measured overhead_pct onto the live-on row.
func runtimeOps(name string, lrec *live.Recorder) Result {
	g := graph.Grid(8, 8)
	m := graph.NewMetric(g)
	hs, err := hier.Build(g, m, hier.Config{Seed: 1})
	if err != nil {
		panic(err)
	}
	tr := motruntime.New(g, hs, motruntime.Options{Live: lrec})
	defer tr.Stop()
	if err := tr.Publish(1, 0); err != nil {
		panic(err)
	}
	n := g.N()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := tr.Move(1, graph.NodeID(1+i%(n-2))); err != nil {
				panic(err)
			}
			if _, _, err := tr.Query(graph.NodeID(n-1), 1); err != nil {
				panic(err)
			}
		}
	})
	res := toResult(name, r, nil)
	res.Pinned = true
	return res
}

// serveOps measures one full HTTP round trip of the named op class
// against a live sharded serving front end: request encode, mux
// dispatch, shard hash, the tracker op on the handler's goroutine, and
// response decode, serialized over a keep-alive connection. Extra
// carries client-side ops_per_sec plus the server-side p50/p99 for the
// class from the service-level recorder.
//
// The alloc columns are deliberately zeroed: testing.Benchmark counts
// heap churn from every goroutine in the process, and here that spans
// the HTTP client and the server's connection and handler goroutines,
// so allocs/op is scheduler noise rather than a per-op contract.
// The pin these rows enforce is ns/op (the gate's 15% band).
func serveOps(class string) Result {
	s, err := serve.New(serve.Config{Shards: 4, Nodes: 64, Seed: 1})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			panic(err)
		}
		ts.Close()
	}()
	do := func(method, path, body string) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			panic(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			panic(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("%s %s: status %d", method, path, resp.StatusCode))
		}
	}
	n := s.Graph().N()
	var r testing.BenchmarkResult
	switch class {
	case "publish":
		// Republishing is a 409, so every iteration registers a fresh
		// object; next persists across the calibration reruns.
		next := 0
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				next++
				do("POST", "/v1/publish", fmt.Sprintf(`{"object":%d,"node":%d}`, next, next%n))
			}
		})
	case "move":
		do("POST", "/v1/publish", `{"object":1,"node":0}`)
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				do("POST", "/v1/move", fmt.Sprintf(`{"object":1,"to":%d}`, 1+i%(n-2)))
			}
		})
	case "query":
		do("POST", "/v1/publish", `{"object":1,"node":0}`)
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				do("GET", "/v1/query/1", "")
			}
		})
	default:
		panic("serveOps: unknown class " + class)
	}
	res := toResult("serve/ops-"+class, r, nil)
	res.AllocsPerOp, res.BytesPerOp = 0, 0
	res.Pinned = true
	extra := map[string]float64{"ops_per_sec": 1e9 / res.NsPerOp}
	for _, op := range s.Snapshot().Request.Ops {
		if op.Class == class {
			extra["p50_ns"] = float64(op.P50Ns)
			extra["p99_ns"] = float64(op.P99Ns)
		}
	}
	res.Extra = extra
	return res
}

// Run executes the whole suite. It takes a few seconds.
func Run() *Report {
	benchmarks := []Result{
		best(5, distFrozen),
		distLazy(),
		precompute(),
		sweep("sweep/256-cache-on", false),
		sweep("sweep/256-cache-off", true),
		best(5, oracleDist),
		best(5, liveNilSink),
	}
	off := best(5, func() Result { return runtimeOps("runtime/ops-live-off", nil) })
	on := best(5, func() Result {
		return runtimeOps("runtime/ops-live-on", live.New("bench", live.Config{}))
	})
	if off.NsPerOp > 0 {
		on.Extra = map[string]float64{
			"overhead_pct": 100 * (on.NsPerOp/off.NsPerOp - 1),
		}
	}
	benchmarks = append(benchmarks, off, on)
	benchmarks = append(benchmarks, oracleBuild(1024, true)...)
	benchmarks = append(benchmarks, oracleBuild(10000, false)...)
	benchmarks = append(benchmarks, best(3, pairDist),
		// The scale harness's hierarchy, and motserve's at 16,384 sensors.
		hierBuild(10000, graph.OracleConfig{}, hier.Config{Seed: 1, SpecialParentOffset: 2}),
		hierBuild(16384, graph.OracleConfig{Seed: 1}, hier.Config{Seed: 1}),
		scaleCell(), churnCell())
	for _, class := range []string{"publish", "move", "query"} {
		benchmarks = append(benchmarks, best(3, func() Result { return serveOps(class) }))
	}
	return &Report{
		Schema:     "mot-bench/v1",
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: benchmarks,
	}
}

// WriteJSON renders the report as indented JSON.
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Package serve is the long-running front end over the tracking
// structures: a stdlib HTTP/JSON server that turns the batch harnesses'
// one-shot workloads into a sustained publish/move/query request
// stream, the ROADMAP's "motserve" — where the headline metric is
// ops/sec and tail latency rather than cost ratio.
//
// Architecture. The object space is partitioned across N shards by a
// SplitMix64 hash of the object ID; each shard owns an independent
// goroutine-runtime tracker (internal/runtime) over one shared sensor
// network and overlay hierarchy, with its own wall-clock telemetry
// recorder (internal/obs/live, labeled serve-shard-<i>). Publishes,
// moves and queries all run on their handler's goroutine under the
// shard's inflight window; the tracker's per-object lock keeps one
// object's operations in order (the paper's one-by-one discipline). A
// move is acknowledged only after its own Move returned, so a 200 means
// the trail reflects the report — nothing acknowledged can be lost by a
// drain.
//
// Backpressure. Admission is bounded by one window per shard: a
// saturated window answers 429 with a Retry-After hint instead of
// queueing unboundedly. Shutdown drains in dependency order — stop
// admitting, finish in-flight handlers, then stop the trackers — so
// SIGTERM never abandons acknowledged work.
//
// Observability and chaos. /debug/serve aggregates ops/sec, inflight
// counts and per-class p50/p99 across shards; each shard's live
// latency snapshot and load mount under /debug/shard/<i>/, and the
// process-wide pprof handlers under /debug/pprof/. With
// Config.ChaosAdmin set, POST /v1/fail/<node> and /v1/recover/<node>
// drive internal/chaos fault drills against the live server: messages
// routed through a failed sensor drop and retry until the
// retransmission budget surfaces a DeliveryError as a 503. This package
// measures wall-clock time by design and is on motlint's walltime
// allowlist; nothing it records feeds deterministic artifacts.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/obs/live"
	"repro/internal/overlay"
	"repro/internal/runtime"
)

// OracleMinNodes is the network size at which the server switches its
// distance substrate from the exact frozen metric to the sub-quadratic
// landmark/ball oracle (mirroring the scale harness's threshold).
const OracleMinNodes = 4096

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of independent trackers the object space is
	// hash-partitioned across. Default 4.
	Shards int
	// Nodes is the sensor-network size (a near-square grid). Networks
	// of OracleMinNodes and above build on the sub-quadratic distance
	// oracle instead of the exact metric. Default 256.
	Nodes int
	// Seed drives the overlay construction and salts each shard's
	// telemetry and fault streams. Default 1.
	Seed int64
	// Inflight bounds each shard's concurrently executing operations;
	// a saturated window answers 429. Default 256.
	Inflight int
	// ChaosAdmin opts in to the fault-drill admin endpoints
	// (/v1/fail, /v1/recover) and builds every shard tracker with a
	// chaos injector so failed sensors actually drop traffic. Off, the
	// endpoints answer 403 and trackers run injector-free.
	ChaosAdmin bool
}

// maxAttempts bounds per-message transmissions during fault drills
// before an operation fails with a 503. Retries are simulated, never
// slept, so the bound costs no wall time.
const maxAttempts = 4

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Inflight <= 0 {
		c.Inflight = 256
	}
}

// Server is the sharded serving front end. Build with New, expose via
// Handler (tests) or Serve/ListenAndServe (deployments), and always
// drain with Shutdown.
type Server struct {
	cfg    Config
	g      *graph.Graph
	root   graph.NodeID
	shards []*shard
	mux    *http.ServeMux

	// agg measures request latency at the HTTP surface (admission to
	// response) across all shards — the number /debug/serve's
	// percentiles report. Per-shard recorders underneath measure
	// tracker-op latency alone.
	agg   *live.Recorder
	start time.Time

	rejected atomic.Int64 // 429s across all endpoints

	httpMu  sync.Mutex
	httpSrv *http.Server

	// admitMu orders admission against Shutdown: handlers admit under
	// RLock and Shutdown sets draining under Lock, so every admitted
	// handler is counted in handlers before Shutdown waits on them.
	admitMu  sync.RWMutex
	draining bool
	handlers sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New builds the shared substrate (grid, distance oracle, overlay) and
// Config.Shards independent trackers over it; it starts no goroutine.
// The server is not listening yet: mount Handler yourself or call
// Serve/ListenAndServe. Call Shutdown to drain.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	g := graph.NearSquareGrid(cfg.Nodes)
	var dm graph.DistanceOracle
	if cfg.Nodes >= OracleMinNodes {
		dm = graph.NewOracle(g, graph.OracleConfig{Seed: cfg.Seed})
	} else {
		m := graph.NewMetric(g)
		m.Precompute(0)
		dm = m
	}
	ov, err := hier.Build(g, dm, hier.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("serve: building overlay: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		g:     g,
		root:  ov.Root().Host,
		agg:   live.New("serve", live.Config{Seed: cfg.Seed}),
		start: time.Now(),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, cfg, g, ov))
	}
	s.mux = s.buildMux()
	return s, nil
}

// splitmix64 is the SplitMix64 finalizer — the same mixer the seed
// streams and fault plans use — here hashing object IDs onto shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardFor maps an object to its owning shard. The hash decorrelates
// shard load from dense client ID ranges (o, o+1, ... spread evenly).
func (s *Server) shardFor(o core.ObjectID) *shard {
	return s.shards[splitmix64(uint64(int64(o)))%uint64(len(s.shards))]
}

// Graph returns the shared sensor network.
func (s *Server) Graph() *graph.Graph { return s.g }

// Root returns the overlay root sensor (failing it downs every trail).
func (s *Server) Root() graph.NodeID { return s.root }

// Location returns object o's current proxy on its owning shard —
// a direct (non-HTTP) read for tests and invariant checks; valid even
// after Shutdown.
func (s *Server) Location(o core.ObjectID) (graph.NodeID, bool) {
	return s.shardFor(o).tr.Location(o)
}

// Handler returns the server's HTTP handler (the /v1 API plus the
// /debug endpoints), for tests and callers that bring their own
// listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful drain, matching net/http.
func (s *Server) Serve(ln net.Listener) error {
	s.httpMu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{Handler: s.mux}
	}
	srv := s.httpSrv
	s.httpMu.Unlock()
	return srv.Serve(ln)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server in dependency order: stop admitting
// requests (new arrivals answer 503), let in-flight handlers finish,
// then stop the shard trackers. A move handler acks only after its own
// Move returned, so every acknowledged move is applied before its
// tracker stops: a drain loses nothing a client was told succeeded.
// Idempotent and safe to call concurrently; every call returns the
// first drain's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()
		var err error
		s.httpMu.Lock()
		srv := s.httpSrv
		s.httpMu.Unlock()
		if srv != nil {
			if err = srv.Shutdown(ctx); err != nil {
				// Drain budget exhausted: cut stragglers. The listener is
				// already closed, so nothing new gets in either way.
				err = srv.Close()
			}
		}
		s.handlers.Wait()
		for _, sh := range s.shards {
			sh.tr.Stop()
		}
		s.closeErr = err
	})
	return s.closeErr
}

// newInjector builds a shard's fault injector for ChaosAdmin mode:
// zero spontaneous fault rates — drills drive explicit Crash/Recover —
// with the configured retransmission budget so traffic through a
// failed sensor surfaces a DeliveryError instead of hanging.
func newInjector(cfg Config, shardID int, n int) *chaos.Injector {
	if !cfg.ChaosAdmin {
		return nil
	}
	return chaos.NewInjector(chaos.Config{
		Seed:        cfg.Seed + int64(shardID),
		MaxAttempts: maxAttempts,
	}, n)
}

// newShard builds shard i's tracker and inflight window.
func newShard(i int, cfg Config, g *graph.Graph, ov overlay.Overlay) *shard {
	lrec := live.New(fmt.Sprintf("serve-shard-%d", i), live.Config{Seed: cfg.Seed + int64(i)})
	return &shard{
		id:   i,
		live: lrec,
		tr:   runtime.New(g, ov, runtime.Options{Chaos: newInjector(cfg, i, g.N()), Live: lrec}),
		sem:  make(chan struct{}, cfg.Inflight),
	}
}

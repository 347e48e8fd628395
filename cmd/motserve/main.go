// Command motserve runs the sharded tracking front end: a long-running
// HTTP/JSON server over the goroutine runtime, where the headline
// numbers are ops/sec and tail latency rather than cost ratio.
//
// Usage:
//
//	motserve -shards 8 -addr :8080          # 8-way sharded server
//	motserve -nodes 1024 -chaos             # bigger grid + fault drills
//
// API (JSON in, JSON out):
//
//	curl -XPOST localhost:8080/v1/publish -d '{"object":1,"node":5}'
//	curl -XPOST localhost:8080/v1/move    -d '{"object":1,"to":9}'
//	curl localhost:8080/v1/query/1
//	curl localhost:8080/v1/query/1?from=30
//	curl -XPOST localhost:8080/v1/fail/5     # 403 unless -chaos
//	curl -XPOST localhost:8080/v1/recover/5
//
// Observability:
//
//	curl localhost:8080/debug/serve                      # aggregate
//	curl localhost:8080/debug/shard/0/debug/live         # one shard
//
// Every operation runs on its handler's goroutine under its shard's
// inflight window. Backpressure: a saturated window (-inflight) answers
// 429 with Retry-After: 1; clients should back off and retry.
// SIGINT/SIGTERM drains gracefully — every move acknowledged with a 200
// is applied before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/runtime/track"
	"repro/internal/serve"
)

// drainTimeout bounds the SIGTERM drain before straggling connections
// are cut.
const drainTimeout = 10 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("motserve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.Int("shards", 4, "tracker shards (object space partitions)")
	nodes := fs.Int("nodes", 256, "sensor network size (near-square grid)")
	inflight := fs.Int("inflight", 256, "per-shard window of concurrent operations")
	seed := fs.Int64("seed", 1, "overlay/telemetry seed")
	chaosAdmin := fs.Bool("chaos", false, "enable /v1/fail and /v1/recover fault drills")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "motserve: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"shards", *shards}, {"nodes", *nodes}, {"inflight", *inflight}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "motserve: -%s %d: want at least 1\n", f.name, f.v)
			return 2
		}
	}

	s, err := serve.New(serve.Config{
		Shards:     *shards,
		Nodes:      *nodes,
		Seed:       *seed,
		Inflight:   *inflight,
		ChaosAdmin: *chaosAdmin,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "motserve:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "motserve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "motserve: %d shards over %d sensors, listening on %s\n",
		*shards, *nodes, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var g track.Group
	serveErr := make(chan error, 1)
	g.Go(func() { serveErr <- s.Serve(ln) })

	code := 0
	select {
	case <-ctx.Done():
		// Graceful drain: stop admitting, flush every acknowledged move,
		// stop the trackers. Bounded so a wedged client can't hold the
		// process hostage.
		fmt.Fprintln(os.Stderr, "motserve: draining")
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := s.Shutdown(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "motserve: drain:", err)
			code = 1
		}
		cancel()
		<-serveErr // http.ErrServerClosed after a clean drain
	case err := <-serveErr:
		// Listener died out from under us (port conflict, ulimit, ...).
		fmt.Fprintln(os.Stderr, "motserve:", err)
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		_ = s.Shutdown(dctx)
		cancel()
		code = 1
	}
	g.Wait()
	fmt.Fprintln(os.Stderr, "motserve: drained")
	return code
}

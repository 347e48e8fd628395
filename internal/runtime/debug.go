package runtime

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/obs/live"
	"repro/internal/runtime/track"
)

// closeTimeout bounds how long Close waits for in-flight debug requests
// before cutting their connections.
const closeTimeout = 5 * time.Second

// DebugServer is the opt-in diagnostics endpoint of a live tracker.
type DebugServer struct {
	addr string
	srv  *http.Server
	pub  *live.Publisher
	g    track.Group

	closeOnce sync.Once
	closeErr  error
}

// Addr returns the address the server listens on (host:port).
func (s *DebugServer) Addr() string { return s.addr }

// Close tears the endpoint down in dependency order: first the HTTP
// server via Shutdown — which waits for in-flight handlers, so a
// /debug/live request racing the teardown finishes against a live
// publisher rather than observing it mid-stop — then the snapshot
// publisher, then the serve loop. Requests that outstay closeTimeout
// get their connections cut instead of stalling the teardown forever.
//
// Close is idempotent and safe to call concurrently with itself and
// with Tracker.Stop: every call blocks until the first teardown
// finishes and returns its error. Callers shutting a tracker down
// should Close the debug server before Stop so no handler can observe
// the tracker mid-stop.
func (s *DebugServer) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if err != nil {
			// Drain budget exhausted (or the context tree was torn down):
			// cut the straggler connections. Shutdown already closed the
			// listener, so nothing new gets in either way.
			err = s.srv.Close()
		}
		s.pub.Stop()
		s.g.Wait()
		s.closeErr = err
	})
	return s.closeErr
}

// DebugMux returns the tracker's diagnostics handler — what ServeDebug
// serves — so front ends (internal/serve mounts one per shard) and
// tests can mount it under their own prefix without binding a listener.
// The /debug/live endpoints fall back to an on-demand snapshot when no
// Publisher runs, so the mux is self-contained.
func (t *Tracker) DebugMux() *http.ServeMux { return t.debugMux() }

// debugMux builds the tracker's diagnostics handler — split out from
// ServeDebug so tests can drive it through httptest without binding a
// real listener.
func (t *Tracker) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.obs.Snapshot())
	})
	mux.HandleFunc("/debug/load", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.LoadByNode())
	})
	mux.HandleFunc("/debug/live", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if t.live == nil {
			http.Error(w, `{"error":"live telemetry disabled"}`, http.StatusNotFound)
			return
		}
		b, err := live.MarshalSnapshotJSON(t.live.Latest())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/debug/live/samples", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if t.live == nil {
			http.Error(w, `{"error":"live telemetry disabled"}`, http.StatusNotFound)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.live.Samples())
	})
	return mux
}

// ServeDebug starts an HTTP debug endpoint for the tracker on addr (use
// "127.0.0.1:0" for an ephemeral port): /debug/obs serves the current
// observability snapshot as JSON, /debug/load the per-node entry counts,
// /debug/live and /debug/live/samples the wall-clock latency snapshot
// and sampled spans when the tracker was built with Options.Live, and the
// standard expvar and pprof handlers ride along. With live telemetry
// attached, the snapshot republishes once a second and is also exposed
// as the expvar "live.<label>". Strictly opt-in — nothing listens
// unless this is called — and diagnostics only: measured runs export
// through internal/obs writers instead.
func (t *Tracker) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DebugServer{addr: ln.Addr().String(), srv: &http.Server{Handler: t.debugMux()}}
	if t.live != nil {
		t.live.PublishExpvar()
		s.pub = t.live.StartPublisher(time.Second)
	}
	s.g.Go(func() { _ = s.srv.Serve(ln) })
	return s, nil
}

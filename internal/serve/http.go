package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/live"
	"repro/internal/runtime"
)

// Wire types for the /v1 API. Object IDs are free-form int64s chosen by
// the client; node IDs must name sensors in [0, Nodes).
type (
	publishRequest struct {
		Object int64 `json:"object"`
		Node   int64 `json:"node"`
	}
	publishResponse struct {
		Object int64 `json:"object"`
		Node   int64 `json:"node"`
		Shard  int   `json:"shard"`
	}
	moveRequest struct {
		Object int64 `json:"object"`
		To     int64 `json:"to"`
	}
	moveResponse struct {
		Object int64 `json:"object"`
		To     int64 `json:"to"`
		Shard  int   `json:"shard"`
		// Coalesced reports that a newer queued move of the same object
		// superseded this one before the tracker saw it; the trail
		// reflects a report at least as new as this one.
		Coalesced bool `json:"coalesced,omitempty"`
	}
	queryResponse struct {
		Object   int64   `json:"object"`
		Location int64   `json:"location"`
		Cost     float64 `json:"cost"`
		Shard    int     `json:"shard"`
	}
	drillResponse struct {
		Node   int64  `json:"node"`
		Action string `json:"action"`
	}
	errorResponse struct {
		Error string `json:"error"`
	}
)

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/publish", s.handlePublish)
	mux.HandleFunc("POST /v1/move", s.handleMove)
	mux.HandleFunc("GET /v1/query/{object}", s.handleQuery)
	mux.HandleFunc("POST /v1/fail/{node}", s.drillHandler("fail"))
	mux.HandleFunc("POST /v1/recover/{node}", s.drillHandler("recover"))
	// Misses under /v1/ answer JSON too: a wrong method on a known
	// route is a 405, anything else a 404.
	for _, route := range []struct{ method, path string }{
		{"POST", "/v1/publish"}, {"POST", "/v1/move"}, {"GET", "/v1/query/{object}"},
		{"POST", "/v1/fail/{node}"}, {"POST", "/v1/recover/{node}"},
	} {
		allow := route.method
		mux.HandleFunc(route.path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Allow", allow)
			writeErr(w, http.StatusMethodNotAllowed, "method not allowed, use "+allow)
		})
	}
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, _ *http.Request) {
		writeErr(w, http.StatusNotFound, "no such endpoint")
	})
	mux.HandleFunc("GET /debug/serve", s.handleDebugServe)
	// Each shard's full runtime diagnostics ride along under a prefix:
	// GET /debug/shard/<i>/debug/live, /debug/shard/<i>/debug/load, ...
	for i, sh := range s.shards {
		prefix := fmt.Sprintf("/debug/shard/%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, sh.tr.DebugMux()))
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// maxBodyBytes caps a request body; valid bodies are under 100 bytes.
const maxBodyBytes = 1 << 10

// decodeBody strictly decodes a JSON request body into v: unknown
// fields, trailing garbage and type mismatches are all 400s, so a
// malformed report is rejected rather than half-read, and a body past
// maxBodyBytes is a 413 without being read to its end.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value, within the cap too.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data")
		}
	}
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes))
	} else {
		writeErr(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
	}
	return false
}

// admitted rejects new work once a drain has begun and counts every
// admitted handler in s.handlers, which the caller must mark Done on
// return. The HTTP server's own Shutdown already waits for its handlers;
// the count covers handlers mounted on a caller's listener via Handler,
// which Shutdown must also outwait before it stops the drain loops.
func (s *Server) admitted(w http.ResponseWriter) bool {
	s.admitMu.RLock()
	ok := !s.draining
	if ok {
		s.handlers.Add(1)
	}
	s.admitMu.RUnlock()
	if !ok {
		writeErr(w, http.StatusServiceUnavailable, "server draining")
	}
	return ok
}

// reject answers 429 with the contract's Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, what string) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusTooManyRequests, what)
}

func (s *Server) validNode(w http.ResponseWriter, n int64) bool {
	if n < 0 || n >= int64(s.g.N()) {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("node %d out of range [0,%d)", n, s.g.N()))
		return false
	}
	return true
}

// opStatus maps tracker errors onto request statuses via the sentinel
// classification, so client faults (404/409) never masquerade as server
// faults and fault-drill delivery failures surface as 503s.
func opStatus(err error) int {
	var de *chaos.DeliveryError
	switch {
	case errors.Is(err, runtime.ErrNotPublished):
		return http.StatusNotFound
	case errors.Is(err, runtime.ErrAlreadyPublished):
		return http.StatusConflict
	case errors.As(err, &de):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if !s.admitted(w) {
		return
	}
	defer s.handlers.Done()
	var req publishRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.validNode(w, req.Node) {
		return
	}
	obj := core.ObjectID(req.Object)
	sh := s.shardFor(obj)
	if !sh.tryAcquire() {
		s.reject(w, "shard inflight window full")
		return
	}
	st := s.agg.Start()
	err := sh.tr.Publish(obj, graph.NodeID(req.Node))
	sh.release()
	s.agg.Observe(live.ClassPublish, st, int(obj), err)
	if err != nil {
		writeErr(w, opStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, publishResponse{Object: req.Object, Node: req.Node, Shard: sh.id})
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	if !s.admitted(w) {
		return
	}
	defer s.handlers.Done()
	var req moveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.validNode(w, req.To) {
		return
	}
	obj := core.ObjectID(req.Object)
	sh := s.shardFor(obj)
	st := s.agg.Start()
	done, ok := sh.enqueueMove(obj, graph.NodeID(req.To))
	if !ok {
		s.reject(w, "shard move queue full")
		return
	}
	// Block until the drain loop applies (or coalesces) the report: the
	// 200 below is the ack the no-lost-moves guarantee hangs off.
	res := <-done
	s.agg.Observe(live.ClassMove, st, int(obj), res.err)
	if res.err != nil {
		writeErr(w, opStatus(res.err), res.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, moveResponse{
		Object: req.Object, To: req.To, Shard: sh.id, Coalesced: res.coalesced,
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admitted(w) {
		return
	}
	defer s.handlers.Done()
	objRaw := r.PathValue("object")
	objN, err := strconv.ParseInt(objRaw, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad object id "+strconv.Quote(objRaw))
		return
	}
	// Queries issue from the overlay root by default; ?from=<node>
	// queries from an arbitrary sensor (distance-sensitive cost).
	from := int64(s.root)
	if raw := r.URL.Query().Get("from"); raw != "" {
		from, err = strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad from node "+strconv.Quote(raw))
			return
		}
		if !s.validNode(w, from) {
			return
		}
	}
	obj := core.ObjectID(objN)
	sh := s.shardFor(obj)
	if !sh.tryAcquire() {
		s.reject(w, "shard inflight window full")
		return
	}
	st := s.agg.Start()
	loc, cost, err := sh.tr.Query(graph.NodeID(from), obj)
	sh.release()
	s.agg.Observe(live.ClassQuery, st, int(obj), err)
	if err != nil {
		writeErr(w, opStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Object: objN, Location: int64(loc), Cost: cost, Shard: sh.id,
	})
}

// drillHandler builds the fail/recover admin endpoint. Drills are a
// deliberate blast radius: the named sensor goes down (or comes back)
// on every shard at once, since shards share the physical network.
func (s *Server) drillHandler(action string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.cfg.ChaosAdmin {
			writeErr(w, http.StatusForbidden,
				"fault drills disabled: start the server with chaos admin enabled")
			return
		}
		if !s.admitted(w) {
			return
		}
		defer s.handlers.Done()
		raw := r.PathValue("node")
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad node id "+strconv.Quote(raw))
			return
		}
		if !s.validNode(w, n) {
			return
		}
		st := s.agg.Start()
		for _, sh := range s.shards {
			if action == "fail" {
				sh.tr.Crash(graph.NodeID(n))
			} else {
				sh.tr.Recover(graph.NodeID(n))
			}
		}
		s.agg.Observe(live.ClassRecovery, st, int(n), nil)
		writeJSON(w, http.StatusOK, drillResponse{Node: n, Action: action})
	}
}

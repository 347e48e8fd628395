package runtime

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs/live"
)

// DebugMux returns the tracker's diagnostics handler, for front ends
// (internal/serve mounts one per shard) and tests to mount under their
// own prefix: /debug/load serves the per-node entry counts, and
// /debug/live and /debug/live/samples the wall-clock latency snapshot
// and sampled spans when the tracker was built with Options.Live (404
// otherwise). Diagnostics only: measured runs export through
// internal/obs writers instead.
func (t *Tracker) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
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
		b, err := live.MarshalSnapshotJSON(t.live.Snapshot())
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

package serve

import (
	"net/http"
	"time"

	"repro/internal/obs/live"
)

// ShardStatus is one shard's row in the /debug/serve snapshot.
type ShardStatus struct {
	ID    int    `json:"id"`
	Label string `json:"label"`
	// Inflight is the number of operations holding window slots at
	// snapshot time; sustained use near the configured bound means
	// clients are about to see 429s.
	Inflight int `json:"inflight"`
	// Ops is the shard tracker's lifetime operation count.
	Ops int64 `json:"ops"`
}

// Status is the aggregated /debug/serve snapshot: service-level rates
// and tails plus per-shard window pressure. Request percentiles are
// measured at the HTTP surface; per-shard tracker latencies live under
// /debug/shard/<i>/debug/live.
type Status struct {
	Shards    int     `json:"shards"`
	Nodes     int     `json:"nodes"`
	Inflight  int     `json:"inflight_bound"`
	UptimeNs  int64   `json:"uptime_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Rejected counts 429 responses (inflight window full) over the
	// server's lifetime.
	Rejected int64 `json:"rejected"`
	// Request carries per-class request-latency percentiles
	// (p50/p90/p99/p999) from the service-level recorder.
	Request     live.Snapshot `json:"request"`
	ShardStatus []ShardStatus `json:"shard_status"`
}

// Snapshot assembles the current aggregated service status.
func (s *Server) Snapshot() Status {
	snap := s.agg.Snapshot()
	uptime := time.Since(s.start)
	st := Status{
		Shards:   len(s.shards),
		Nodes:    s.cfg.Nodes,
		Inflight: s.cfg.Inflight,
		UptimeNs: int64(uptime),
		Rejected: s.rejected.Load(),
		Request:  snap,
	}
	if secs := uptime.Seconds(); secs > 0 {
		st.OpsPerSec = float64(snap.Total.Count) / secs
	}
	for _, sh := range s.shards {
		st.ShardStatus = append(st.ShardStatus, ShardStatus{
			ID:       sh.id,
			Label:    sh.live.Label(),
			Inflight: sh.inflight(),
			Ops:      sh.live.Snapshot().Total.Count,
		})
	}
	return st
}

func (s *Server) handleDebugServe(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

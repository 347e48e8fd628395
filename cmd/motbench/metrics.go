package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// units names the unit of every metric motbench measures. BENCHMARK.json
// picks the end-to-end and per-layer metrics the result line carries;
// the rest are written to the -out record only.
var units = map[string]string{
	// End to end.
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"ops_s":       "ops/s",
	"p50_ms":      "ms",

	// Per layer, replayed in-process on every workload's op stream.
	"serve.handler_move_us":       "us",
	"serve.handler_query_us":      "us",
	"serve.self_move_us":          "us",
	"serve.allocs_per_op":         "allocs/op",
	"runtime.publish_us":          "us",
	"runtime.move_us":             "us",
	"runtime.query_us":            "us",
	"runtime.cost_per_op":         "cost/op",
	"runtime.dist_calls_per_op":   "calls/op",
	"runtime.dpath_calls_per_op":  "calls/op",
	"runtime.allocs_per_op":       "allocs/op",
	"core.move_us":                "us",
	"core.query_us":               "us",
	"core.maint_ratio":            "ratio",
	"core.query_ratio":            "ratio",
	"core.dist_calls_per_op":      "calls/op",
	"core.allocs_per_op":          "allocs/op",
	"hier.build_s":                "s",
	"hier.dpath_ns":               "ns",
	"hier.stations_per_path":      "count",
	"graph.substrate_build_s":     "s",
	"graph.dist_ns":               "ns",
	"graph.oracle_bytes_per_node": "B/node",
	"trace.overhead_share":        "share",

	// Serving workloads only.
	"p99_ms":                     "ms",
	"move_p50_ms":                "ms",
	"move_p99_ms":                "ms",
	"query_p50_ms":               "ms",
	"query_p99_ms":               "ms",
	"fail_share":                 "share",
	"client.lateness_p50_ms":     "ms",
	"client.lateness_p99_ms":     "ms",
	"client.conn_wait_p99_ms":    "ms",
	"client.rtt_move_p50_us":     "us",
	"client.rtt_query_p50_us":    "us",
	"net.overhead_move_p50_us":   "us",
	"net.overhead_query_p50_us":  "us",
	"serve.request_move_p50_us":  "us",
	"serve.request_move_p99_us":  "us",
	"serve.request_query_p50_us": "us",
	"serve.request_query_p99_us": "us",
	"serve.queue_wait_p50_us":    "us",
	"serve.rejected_share":       "share",
	"serve.coalesced_share":      "share",
	"runtime.shard_op_p99_us":    "us",
	"trace.residual_move_us":     "us",

	// Batch workloads only.
	"experiments.onebyone_cell_ms": "ms",
	"sim.concurrent_cell_ms":       "ms",
	"experiments.scale_cell_ms":    "ms",
	"experiments.substrate_cold_s": "s",
	"experiments.audit_share":      "share",
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json motbench reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBench(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			return nil, fmt.Errorf("%s: metric %s has unit %q; motbench measures it in %q", path, m.Name, m.Unit, u)
		}
	}
	return &bf, nil
}

// lineMetrics selects the metrics of one mode (end to end untraced,
// per layer traced) from everything a run measured.
func (bf *benchFile) lineMetrics(measured map[string]float64, traced bool) (map[string]valueUnit, error) {
	specs := bf.EndToEnd
	if traced {
		specs = bf.PerLayer
	}
	out := make(map[string]valueUnit, len(specs))
	for _, m := range specs {
		v, ok := measured[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		out[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return out, nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
)

// childEnv marks a re-executed motbench as the batch child, which runs
// the harness passes and reports them on its last stdout line.
const childEnv = "MOTBENCH_BATCH_CHILD"

// childReport is what the batch child measured. Times are milliseconds
// except the set-ups.
type childReport struct {
	SetupS    []float64            `json:"setup_s"`   // cold first passes
	PassMs    []float64            `json:"pass_ms"`   // warm untraced passes
	TracedMs  []float64            `json:"traced_ms"` // warm traced passes (traced run)
	CallMs    map[string][]float64 `json:"call_ms"`   // per call, over warm passes
	NoAuditMs float64              `json:"no_audit_ms,omitempty"`
	Digest    string               `json:"digest"`
	PeakRSSMB float64              `json:"peak_rss_mb"`
	Spans     []childSpan          `json:"spans,omitempty"`
	Error     string               `json:"error,omitempty"`
	Violation bool                 `json:"violation,omitempty"` // Error is a failed check
}

// childSpan is a harness-call span of the child, in ns since its
// tracer's epoch.
type childSpan struct {
	Name       string
	Start, End int64
}

// runPass runs one harness pass and returns the digest of its results
// and each call's wall time in ms.
func runPass(b *batchSpec, seed int64, tr *tracer) (string, []float64, error) {
	h := sha256.New()
	calls := make([]float64, 0, len(b.calls))
	for _, c := range b.calls {
		sp := tr.begin(c.name, 0)
		t0 := time.Now()
		res, err := c.run(seed, false)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", c.name, err)
		}
		calls = append(calls, float64(d.Nanoseconds())/1e6)
		fmt.Fprintf(h, "%s %+v\n", c.name, res)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), calls, nil
}

// childMain is the batch child: setupRuns cold passes (the substrate
// cache emptied before each), then warm passes for the run length. A
// traced run alternates untraced and traced passes and times the audit.
func childMain(w *workload, opt options) int {
	rep, err := batchChild(w.batch, opt)
	if err != nil {
		rep.Error = err.Error()
		rep.Violation = errors.As(err, new(violation))
	}
	b, _ := json.Marshal(rep)
	fmt.Println(string(b))
	if err != nil {
		return 1
	}
	return 0
}

func batchChild(b *batchSpec, opt options) (*childReport, error) {
	rep := &childReport{CallMs: map[string][]float64{}}
	var tr *tracer
	if opt.traced {
		tr = newTracer(1 << 12)
	}
	cold := setupRuns
	if opt.traced {
		cold = 1
	}
	for i := 0; i < cold; i++ {
		experiments.ResetSubstrateCache()
		goruntime.GC()
		t0 := time.Now()
		d, _, err := runPass(b, opt.seed, nil)
		if err != nil {
			return rep, err
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if rep.Digest != "" && d != rep.Digest {
			return rep, violation{fmt.Errorf("cold pass %d digest %s differs from %s", i, d, rep.Digest)}
		}
		rep.Digest = d
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := opt.traced && i%2 == 1
		var passTr *tracer
		if traced {
			passTr = tr
		}
		t0 := time.Now()
		d, calls, err := runPass(b, opt.seed, passTr)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return rep, err
		}
		if d != rep.Digest {
			return rep, violation{fmt.Errorf("warm pass %d digest %s differs from the cold pass's %s", i, d, rep.Digest)}
		}
		if traced {
			rep.TracedMs = append(rep.TracedMs, ms)
		} else {
			rep.PassMs = append(rep.PassMs, ms)
		}
		for k, c := range b.calls {
			rep.CallMs[c.name] = append(rep.CallMs[c.name], calls[k])
		}
	}
	for _, c := range b.calls {
		if opt.traced && c.name == b.auditCall {
			t0 := time.Now()
			if _, err := c.run(opt.seed, true); err != nil {
				return rep, fmt.Errorf("%s without audit: %w", c.name, err)
			}
			rep.NoAuditMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
	}
	for _, s := range tr.recorded() {
		rep.Spans = append(rep.Spans, childSpan{s.name, s.start, s.end})
	}
	rss, err := peakRSSMB(os.Getpid())
	rep.PeakRSSMB = rss
	return rep, err
}

// runBatch runs a batch workload in a re-executed child, so its peak
// memory and cold caches are the harness's own, then (traced) replays
// the largest cell's stream through each layer in this process.
func runBatch(w *workload, opt options) (*result, error) {
	b := w.batch
	res := &result{Workload: w.name, Metrics: map[string]float64{}}
	m := res.Metrics
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if opt.traced {
		trace = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	launched := opt.tr.now()
	out, runErr := cmd.Output()
	var rep childReport
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return res, fmt.Errorf("batch child (%v) printed no report: %w", runErr, err)
	}
	res.Attempted = len(rep.SetupS) + len(rep.PassMs) + len(rep.TracedMs)
	if rep.Error != "" {
		res.Failed = 1
		err := fmt.Errorf("batch child: %s", rep.Error)
		if rep.Violation {
			return res, violation{err}
		}
		return res, err
	}
	if runErr != nil {
		return res, fmt.Errorf("batch child: %w", runErr)
	}
	if opt.seed == 1 && b.digestSeed1 != "" && rep.Digest != b.digestSeed1 {
		return res, violation{fmt.Errorf("result digest %s at seed 1 differs from the recorded %s", rep.Digest, b.digestSeed1)}
	}
	m["setup_s"] = median(rep.SetupS)
	m["peak_rss_mb"] = rep.PeakRSSMB
	m["p50_ms"] = median(rep.PassMs)
	total := 0.0
	for _, ms := range rep.PassMs {
		total += ms
	}
	m["ops_s"] = float64(b.opsPerPass*len(rep.PassMs)) / (total / 1e3)
	if !opt.traced {
		return res, nil
	}
	for _, s := range rep.Spans {
		opt.tr.add(s.Name, launched+s.Start, launched+s.End, -1, 0)
	}
	m["trace.overhead_share"] = median(rep.TracedMs)/median(rep.PassMs) - 1
	m["experiments.substrate_cold_s"] = median(rep.SetupS) - median(rep.PassMs)/1e3
	for _, c := range b.calls {
		m[c.name+"_cell_ms"] = median(rep.CallMs[c.name]) / float64(c.cells)
		if c.name == b.auditCall {
			m["experiments.audit_share"] = 1 - rep.NoAuditMs/median(rep.CallMs[c.name])
		}
	}
	rs := replaySpec{nodes: b.replayNodes, ops: func(g *graph.Graph) ([]op, []op, error) {
		return batchStream(b, g, opt.seed)
	}}
	return res, replay(rs, opt.tr, m)
}

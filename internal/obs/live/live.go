// Package live is the wall-clock half of the observability story — the
// layer internal/obs deliberately refuses to be. Where obs records on
// logical clocks so exports stay byte-deterministic, live measures what
// actually happened on this machine: per-operation wall-clock latency
// distributions (log-bucketed histograms answering p50/p90/p99/p999 and
// max) and a bounded-memory sample of recent operations (a fixed-size
// reservoir with seeded replacement, never unbounded growth).
//
// The two layers never mix. Nothing live records can reach a measured
// artifact: deterministic exporters (JSONL/CSV/Chrome traces, report
// tables in their default shape) are sourced exclusively from
// internal/obs, while live snapshots surface through diagnostics
// channels only — the /debug/live endpoints, expvar, and stderr
// summaries. This package is the single library package on motlint's
// walltime allowlist; a time.Now anywhere else in library code is
// still a lint error.
//
// Overhead contract. A nil *Recorder is a fully disabled sink: every
// method nil-checks the receiver and returns immediately, so
// instrumented paths pay one pointer test and zero allocations when
// live telemetry is off (pinned by TestNilLiveRecorderZeroAllocs and
// the live/nil-sink bench). Enabled, an observation is two clock reads
// plus a handful of atomic adds and a short mutex hold on the sampler
// — budgeted at ≤10% of a runtime tracker op and measured by the
// runtime/ops-live-* benchmarks in internal/bench.
package live

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Class is an operation class — the same four the deterministic layer
// spans (internal/obs's OpPublish..OpRecovery).
type Class int

const (
	ClassPublish Class = iota
	ClassMove
	ClassQuery
	ClassRecovery
	// NumClasses bounds Class; out-of-range classes are clamped to
	// ClassRecovery rather than dropped.
	NumClasses
)

var classNames = [NumClasses]string{"publish", "move", "query", "recovery"}

// String names the class as it appears in snapshots and summaries.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "other"
	}
	return classNames[c]
}

// DefaultSampleSize is the span-reservoir capacity used when
// Config.SampleSize is zero.
const DefaultSampleSize = 256

// Config parameterizes a live recorder.
type Config struct {
	// SampleSize caps the span reservoir (default DefaultSampleSize).
	// Memory for samples is SampleSize entries, allocated once —
	// sustained load never grows it.
	SampleSize int
	// Seed drives the reservoir's replacement stream (SplitMix64).
	// Equal seeds over an identical observation sequence keep identical
	// samples; the default is 1.
	Seed int64
}

// Recorder collects wall-clock latency histograms per operation class
// and a bounded reservoir of sampled spans. A nil Recorder is a valid,
// fully disabled sink; all methods are safe for concurrent use.
type Recorder struct {
	label string
	start time.Time

	hists [NumClasses]histogram
	errs  [NumClasses]atomic.Int64
	samp  reservoir

	// published is the most recent periodic snapshot (see Publisher);
	// Latest falls back to a fresh Snapshot when none was published.
	published atomic.Pointer[Snapshot]
}

// New returns an enabled live recorder labeled label.
func New(label string, cfg Config) *Recorder {
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = DefaultSampleSize
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &Recorder{label: label, start: time.Now()}
	r.samp.init(cfg.SampleSize, cfg.Seed)
	return r
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// Label returns the recorder's label ("" when disabled).
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Stamp is an opaque start-of-operation mark. The zero Stamp (and any
// Stamp from a nil Recorder) makes Observe a no-op.
type Stamp struct {
	off time.Duration // monotonic offset from the recorder's start; 0 is no stamp
}

// Start reads the monotonic clock for an operation about to run. On a
// nil recorder it returns the zero Stamp without touching the clock.
func (r *Recorder) Start() Stamp {
	if r == nil {
		return Stamp{}
	}
	return Stamp{off: max(time.Since(r.start), 1)}
}

// Observe closes the measurement opened by Start: it records the
// elapsed time into class c's histogram, counts err, and offers the
// span to the sample reservoir.
func (r *Recorder) Observe(c Class, st Stamp, object int, err error) {
	if r == nil || st.off == 0 {
		return
	}
	r.observe(c, time.Since(r.start)-st.off, r.start.Add(st.off), object, err)
}

// ObserveDuration records a span of known duration d (tests and
// substrates that measure elapsed time themselves).
func (r *Recorder) ObserveDuration(c Class, d time.Duration, object int, err error) {
	if r == nil {
		return
	}
	r.observe(c, d, time.Now().Add(-d), object, err)
}

func (r *Recorder) observe(c Class, d time.Duration, start time.Time, object int, err error) {
	if c < 0 || c >= NumClasses {
		c = ClassRecovery
	}
	r.hists[c].observe(d)
	if err != nil {
		r.errs[c].Add(1)
	}
	r.samp.offer(Sample{
		Class:  c.String(),
		Object: object,
		Start:  start.UnixNano(),
		DurNs:  int64(d),
		Err:    err != nil,
	})
}

// Quantile returns class c's q-quantile latency (0 when disabled or
// unobserved).
func (r *Recorder) Quantile(c Class, q float64) time.Duration {
	if r == nil || c < 0 || c >= NumClasses {
		return 0
	}
	var counts [histSlots]int64
	total, _, max := r.hists[c].load(&counts)
	return time.Duration(quantileOf(&counts, total, max, q))
}

// OpSnapshot is one class's distribution in a snapshot. Latencies are
// nanoseconds; percentiles carry the histogram's ~3% bucket error,
// MaxNs is exact.
type OpSnapshot struct {
	Class  string  `json:"class"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// Snapshot is a point-in-time copy of the recorder: per-class
// distributions, the all-classes aggregate, and the sampler's
// occupancy. It is what the /debug/live endpoint and expvar serve.
type Snapshot struct {
	Label    string       `json:"label"`
	UptimeNs int64        `json:"uptime_ns"`
	Total    OpSnapshot   `json:"total"`
	Ops      []OpSnapshot `json:"ops"`
	// SamplesSeen counts every span offered to the reservoir;
	// SamplesKept is its current (bounded) occupancy.
	SamplesSeen int64 `json:"samples_seen"`
	SamplesKept int   `json:"samples_kept"`
}

func opSnapshot(name string, counts *[histSlots]int64, count, sum, max, errs int64) OpSnapshot {
	op := OpSnapshot{Class: name, Count: count, Errors: errs, MaxNs: max}
	if count == 0 {
		return op
	}
	op.MeanNs = float64(sum) / float64(count)
	op.P50Ns = quantileOf(counts, count, max, 0.50)
	op.P90Ns = quantileOf(counts, count, max, 0.90)
	op.P99Ns = quantileOf(counts, count, max, 0.99)
	op.P999Ns = quantileOf(counts, count, max, 0.999)
	return op
}

// Snapshot captures the recorder. Safe while recording continues; the
// zero Snapshot is returned for a nil recorder.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{Label: r.label, UptimeNs: int64(time.Since(r.start))}
	var agg [histSlots]int64
	var counts [histSlots]int64
	var aggCount, aggSum, aggMax, aggErrs int64
	for c := Class(0); c < NumClasses; c++ {
		count, sum, max := r.hists[c].load(&counts)
		errs := r.errs[c].Load()
		snap.Ops = append(snap.Ops, opSnapshot(c.String(), &counts, count, sum, max, errs))
		for i := range agg {
			agg[i] += counts[i]
		}
		aggCount += count
		aggSum += sum
		aggErrs += errs
		if max > aggMax {
			aggMax = max
		}
	}
	snap.Total = opSnapshot("all", &agg, aggCount, aggSum, aggMax, aggErrs)
	snap.SamplesSeen, snap.SamplesKept = r.samp.stats()
	return snap
}

// Samples returns a copy of the reservoir's current contents, ordered
// by span start time. Bounded by Config.SampleSize.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samp.samples()
}

// WriteSummary writes a compact human-readable latency summary — the
// shape `motsim -live-summary` prints to stderr.
func (r *Recorder) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	if _, err := fmt.Fprintf(w, "live %s: %d ops in %v, %d sampled of %d seen\n",
		s.Label, s.Total.Count, time.Duration(s.UptimeNs).Round(time.Millisecond),
		s.SamplesKept, s.SamplesSeen); err != nil {
		return err
	}
	for _, op := range s.Ops {
		if op.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-8s n=%-7d err=%-4d p50=%-10v p90=%-10v p99=%-10v p999=%-10v max=%v\n",
			op.Class, op.Count, op.Errors,
			time.Duration(op.P50Ns), time.Duration(op.P90Ns),
			time.Duration(op.P99Ns), time.Duration(op.P999Ns),
			time.Duration(op.MaxNs)); err != nil {
			return err
		}
	}
	return nil
}

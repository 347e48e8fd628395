package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime/track"
)

// The bucket mapping must be total, monotone, and self-consistent:
// every value lands in exactly one slot whose upper edge is the largest
// value mapping back to that same slot.
func TestHistSlotMapping(t *testing.T) {
	last := -1
	for _, u := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		s := histSlot(u)
		if s < 0 || s >= histSlots {
			t.Fatalf("histSlot(%d) = %d out of range [0,%d)", u, s, histSlots)
		}
		if s < last {
			t.Fatalf("histSlot not monotone at %d: slot %d after %d", u, s, last)
		}
		last = s
	}
	for s := 0; s < histSlots; s++ {
		upper := histSlotUpper(s)
		if upper < 0 {
			continue // top octave's edge overflows int64; histogram input caps at max int64
		}
		if got := histSlot(uint64(upper)); got != s {
			t.Fatalf("histSlot(histSlotUpper(%d)=%d) = %d", s, upper, got)
		}
		if upper+1 > 0 {
			if got := histSlot(uint64(upper + 1)); got != s+1 {
				t.Fatalf("slot %d upper edge %d: next value maps to %d, want %d", s, upper, got, s+1)
			}
		}
	}
}

// Quantiles over a known uniform distribution must land within the
// histogram's published ~3.1% relative error, and max must be exact.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h histogram
	const n = 10000
	for i := 1; i <= n; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	var counts [histSlots]int64
	total, sum, max := h.load(&counts)
	if total != n {
		t.Fatalf("count = %d, want %d", total, n)
	}
	if want := int64(n) * (n + 1) / 2 * 1000; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if max != int64(n)*1000 {
		t.Fatalf("max = %d, want %d", max, n*1000)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := quantileOf(&counts, total, max, q)
		exact := q * float64(n) * 1000
		if rel := (float64(got) - exact) / exact; rel < -0.001 || rel > 0.04 {
			t.Errorf("q=%v: got %d, exact %.0f (rel err %.4f)", q, got, exact, rel)
		}
	}
	if got := quantileOf(&counts, total, max, 1.0); got != max {
		t.Errorf("q=1 = %d, want exact max %d", got, max)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h histogram
	h.observe(-time.Second) // clock step: clamps to 0, never corrupts
	h.observe(0)
	var counts [histSlots]int64
	total, sum, max := h.load(&counts)
	if total != 2 || sum != 0 || max != 0 {
		t.Fatalf("after negative+zero: count=%d sum=%d max=%d", total, sum, max)
	}
	if counts[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", counts[0])
	}
	if q := quantileOf(&counts, 0, 0, 0.5); q != 0 {
		t.Fatalf("quantile of empty = %d", q)
	}
}

// The reservoir must fill to its cap, never exceed it, count every
// offer, and replay byte-identically under the same seed.
func TestReservoirBoundedAndSeeded(t *testing.T) {
	mk := func(seed int64) *reservoir {
		rv := &reservoir{}
		rv.init(32, seed)
		for i := 0; i < 5000; i++ {
			rv.offer(Sample{Class: "move", Object: i, Start: int64(i), DurNs: int64(i % 97)})
		}
		return rv
	}
	rv := mk(7)
	seen, kept := rv.stats()
	if seen != 5000 {
		t.Fatalf("seen = %d, want 5000", seen)
	}
	if kept != 32 {
		t.Fatalf("kept = %d, want cap 32", kept)
	}
	a, b := mk(7).samples(), mk(7).samples()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed + same sequence produced different samples")
	}
	c := mk(8).samples()
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical samples (suspicious)")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Start < a[i-1].Start {
			t.Fatal("samples not ordered by start")
		}
	}
}

func TestReservoirKeepsAllWhenUnderCap(t *testing.T) {
	rv := &reservoir{}
	rv.init(64, 1)
	for i := 0; i < 10; i++ {
		rv.offer(Sample{Object: i, Start: int64(10 - i)})
	}
	got := rv.samples()
	if len(got) != 10 {
		t.Fatalf("kept %d, want all 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatal("samples not sorted by start")
		}
	}
}

// The disabled sink is the hot-path contract: a nil *Recorder must be
// safe on every method and allocation-free on the per-op path.
func TestNilRecorderSafeAndZeroAlloc(t *testing.T) {
	var r *Recorder
	if r.Enabled() || r.Label() != "" {
		t.Fatal("nil recorder claims to be enabled")
	}
	r.Observe(ClassMove, r.Start(), 1, errors.New("x"))
	r.ObserveDuration(ClassQuery, time.Second, 1, nil)
	if s := r.Snapshot(); s.Total.Count != 0 {
		t.Fatal("nil snapshot non-empty")
	}
	if r.Samples() != nil {
		t.Fatal("nil samples non-nil")
	}
	if r.Quantile(ClassMove, 0.99) != 0 {
		t.Fatal("nil quantile non-zero")
	}
	if err := r.WriteSummary(nil); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		st := r.Start()
		r.Observe(ClassPublish, st, 3, nil)
		r.ObserveDuration(ClassMove, time.Millisecond, 4, nil)
	}); allocs != 0 {
		t.Fatalf("nil-sink path allocates: %v allocs/op", allocs)
	}
}

func TestRecorderEndToEnd(t *testing.T) {
	r := New("test", Config{SampleSize: 16, Seed: 3})
	if !r.Enabled() || r.Label() != "test" {
		t.Fatal("recorder identity wrong")
	}
	for i := 0; i < 100; i++ {
		r.ObserveDuration(ClassPublish, time.Duration(i+1)*time.Microsecond, i, nil)
		r.ObserveDuration(ClassMove, time.Duration(2*i+1)*time.Microsecond, i, nil)
	}
	r.ObserveDuration(ClassQuery, 5*time.Millisecond, 0, errors.New("timeout"))
	r.ObserveDuration(Class(99), time.Microsecond, 0, nil) // clamps to recovery

	s := r.Snapshot()
	if s.Label != "test" || s.UptimeNs <= 0 {
		t.Fatalf("snapshot header: %+v", s)
	}
	if len(s.Ops) != int(NumClasses) {
		t.Fatalf("ops = %d classes, want %d", len(s.Ops), NumClasses)
	}
	byClass := map[string]OpSnapshot{}
	for _, op := range s.Ops {
		byClass[op.Class] = op
	}
	if byClass["publish"].Count != 100 || byClass["move"].Count != 100 {
		t.Fatalf("publish/move counts: %+v", byClass)
	}
	if byClass["query"].Count != 1 || byClass["query"].Errors != 1 {
		t.Fatalf("query with error: %+v", byClass["query"])
	}
	if byClass["recovery"].Count != 1 {
		t.Fatalf("out-of-range class not clamped to recovery: %+v", byClass["recovery"])
	}
	if s.Total.Count != 202 || s.Total.Errors != 1 {
		t.Fatalf("total aggregate: %+v", s.Total)
	}
	mv := byClass["move"]
	if !(mv.P50Ns <= mv.P90Ns && mv.P90Ns <= mv.P99Ns && mv.P99Ns <= mv.P999Ns && mv.P999Ns <= mv.MaxNs) {
		t.Fatalf("percentiles not monotone: %+v", mv)
	}
	if mv.MaxNs != int64(199*time.Microsecond) {
		t.Fatalf("move max = %d, want exact %d", mv.MaxNs, 199*time.Microsecond)
	}
	if s.Total.MaxNs != int64(5*time.Millisecond) {
		t.Fatalf("total max = %d", s.Total.MaxNs)
	}
	if mean := mv.MeanNs; mean <= 0 || mean > float64(mv.MaxNs) {
		t.Fatalf("move mean = %v", mean)
	}
	if s.SamplesSeen != 202 || s.SamplesKept != 16 {
		t.Fatalf("sampler: seen=%d kept=%d", s.SamplesSeen, s.SamplesKept)
	}
	if q := r.Quantile(ClassMove, 0.5); q <= 0 || q > 199*time.Microsecond {
		t.Fatalf("Quantile = %v", q)
	}

	var sb strings.Builder
	if err := r.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"live test:", "202 ops", "publish", "move", "query", "p99="} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sb.String())
		}
	}
}

func TestObserveStampPath(t *testing.T) {
	r := New("stamp", Config{})
	st := r.Start()
	time.Sleep(time.Millisecond)
	r.Observe(ClassQuery, st, 7, nil)
	r.Observe(ClassQuery, Stamp{}, 7, nil) // zero stamp: dropped
	s := r.Snapshot()
	q := s.Ops[ClassQuery]
	if q.Count != 1 {
		t.Fatalf("count = %d, want 1 (zero stamp must be dropped)", q.Count)
	}
	if q.MaxNs < int64(time.Millisecond) {
		t.Fatalf("measured %dns for a 1ms sleep", q.MaxNs)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New("json", Config{SampleSize: 4, Seed: 2})
	r.ObserveDuration(ClassMove, 42*time.Microsecond, 9, errors.New("drop"))
	b, err := MarshalSnapshotJSON(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Label != "json" || s.Total.Count != 1 || s.Total.Errors != 1 || s.SamplesKept != 1 {
		t.Fatalf("round-trip: %+v", s)
	}
	samples := r.Samples()
	if len(samples) != 1 || samples[0].Class != "move" || samples[0].Object != 9 || !samples[0].Err {
		t.Fatalf("samples: %+v", samples)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassPublish: "publish", ClassMove: "move", ClassQuery: "query",
		ClassRecovery: "recovery", Class(-1): "other", NumClasses: "other",
	} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}

// Concurrent observers across classes plus a snapshotter: exercised so
// the atomics/lock layout shows up under -race if ever run there.
func TestConcurrentObserve(t *testing.T) {
	r := New("conc", Config{SampleSize: 8})
	var g track.Group
	const perG = 500
	for c := Class(0); c < NumClasses; c++ {
		c := c
		g.Go(func() {
			for i := 0; i < perG; i++ {
				r.ObserveDuration(c, time.Duration(i)*time.Nanosecond, i, nil)
			}
		})
	}
	g.Go(func() {
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			_ = r.Samples()
		}
	})
	g.Wait()
	s := r.Snapshot()
	if want := int64(perG) * int64(NumClasses); s.Total.Count != want {
		t.Fatalf("total = %d, want %d", s.Total.Count, want)
	}
	if s.SamplesKept > 8 {
		t.Fatalf("reservoir exceeded cap: %d", s.SamplesKept)
	}
}

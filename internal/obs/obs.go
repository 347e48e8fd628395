// Package obs is the repository's deterministic observability layer:
// structured spans and events for every directory operation, plus a
// metrics registry of counters, high-watermark gauges, fixed-bucket
// histograms, and indexed series (per-node, per-level).
//
// Determinism contract. Everything obs records is keyed by logical
// identity — operation number, per-span event sequence, metric name —
// and every exporter sorts by that identity before rendering, so the
// exported bytes depend only on the recorded operations, never on
// goroutine scheduling or wall-clock time (the motlint walltime rule
// applies to this package like any other library). Timestamps are
// whatever logical clock the instrumented substrate supplies:
//
//   - internal/core uses its cumulative-cost clock (operations execute
//     instantly under the directory lock; the clock advances by each
//     operation's message cost),
//   - internal/sim uses the simulated time of its event engine,
//   - internal/runtime uses a cost clock advanced per completed
//     operation (exact under sequential replay, approximate when
//     clients race — the identity sort keeps exports stable either
//     way as long as the issue order is deterministic).
//
// Nil-sink fast path. A nil *Recorder is a valid, fully disabled sink:
// every method nil-checks the receiver and returns immediately, so
// instrumented code paths pay one pointer test when observability is
// off (bench_test.go pins this at well under a nanosecond per call).
package obs

import "sync"

// Span kinds — one per directory operation class.
const (
	OpPublish  = "publish"
	OpMove     = "move"
	OpQuery    = "query"
	OpRecovery = "recovery"
)

// Event kinds recorded inside spans.
const (
	EvHop     = "hop"      // one message travel between hosts
	EvStamp   = "stamp"    // DPath entry written at a station
	EvWipe    = "wipe"     // DL/SDL entry (or whole trail) erased
	EvSDL     = "sdl"      // special-parent (SDL) registration touched
	EvLBRoute = "lb-route" // de Bruijn intra-cluster routing surcharge
	EvPeak    = "peak"     // climb met the object's trail (insert peak, query DL hit)
	EvRetry   = "retry"    // chaos retransmission attempt
	EvWait    = "wait"     // operation parked (period gate, stale proxy)
	EvRestart = "restart"  // query re-climbed after losing the trail
	EvAbort   = "abort"    // operation abandoned by the fault layer
)

// Series names shared by the substrates, so cross-substrate reports line
// up column for column.
const (
	// SeriesNodeMsgs counts messages handled per physical node — the
	// traffic-load distribution.
	SeriesNodeMsgs = "node.msgs"
	// SeriesNodeEntries counts directory entries stored per physical
	// node under the configured placement — the §5 storage-load metric.
	SeriesNodeEntries = "node.entries"
	// SeriesLevelHops counts message travels per overlay level.
	SeriesLevelHops = "level.hops"
)

// Event is one annotated point inside a span. Seq orders events within
// their span (assigned at record time, dense from 0), which is what makes
// exports independent of timestamp collisions.
type Event struct {
	Seq   int     `json:"seq"`
	Kind  string  `json:"kind"`
	Level int     `json:"level"`
	Node  int     `json:"node"`
	Cost  float64 `json:"cost"`
	At    float64 `json:"at"`
}

// spanData is the recorder-owned state of one span.
type spanData struct {
	op     uint64
	kind   string
	object int
	start  float64
	end    float64
	done   bool
	events []Event
}

// Recorder collects spans and metrics. A nil Recorder is a disabled
// sink: all methods are safe to call and do nothing. Recorders are safe
// for concurrent use.
type Recorder struct {
	label string

	mu       sync.Mutex
	spans    []spanData
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*histogram
	series   map[string][]float64
}

// New returns an enabled recorder. The label names the run in every
// export (the "run" column / Chrome process name).
func New(label string) *Recorder {
	return &Recorder{
		label:    label,
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
		series:   map[string][]float64{},
	}
}

// Enabled reports whether the recorder actually records.
//
//motlint:hotpath
func (r *Recorder) Enabled() bool { return r != nil }

// Label returns the recorder's run label ("" when disabled).
//
//motlint:hotpath
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Span is a value handle onto one recorded span. The zero Span (and any
// Span from a nil Recorder) is inert: Event and End do nothing.
type Span struct {
	r   *Recorder
	idx int
}

// StartSpan opens a span for operation op of the given kind on object at
// logical time at. op is the substrate's operation number; it is the
// primary export sort key, so equal-op spans (e.g. publishes, which some
// substrates do not number) must differ in object or kind.
func (r *Recorder) StartSpan(kind string, op uint64, object int, at float64) Span {
	if r == nil {
		return Span{}
	}
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, spanData{op: op, kind: kind, object: object, start: at, end: at})
	r.mu.Unlock()
	return Span{r: r, idx: idx}
}

// Active reports whether the span records (false for the zero Span).
//
//motlint:hotpath
func (s Span) Active() bool { return s.r != nil }

// Event appends one annotated event to the span. Level is the overlay
// level involved (-1 when not meaningful), node the physical host, cost
// the message distance attributable to the event (0 for bookkeeping
// events), and at the substrate's logical time.
func (s Span) Event(kind string, level, node int, cost, at float64) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	sp := &s.r.spans[s.idx]
	sp.events = append(sp.events, Event{
		Seq: len(sp.events), Kind: kind, Level: level, Node: node, Cost: cost, At: at,
	})
	s.r.mu.Unlock()
}

// End closes the span at logical time at. Ending twice keeps the later
// time; unended spans export with end == start.
//
//motlint:hotpath
func (s Span) End(at float64) {
	if s.r == nil {
		return
	}
	s.r.mu.Lock()
	sp := &s.r.spans[s.idx]
	sp.end = at
	sp.done = true
	s.r.mu.Unlock()
}

// SpanCount returns the number of spans recorded so far.
//
//motlint:hotpath
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Arrive accounts one message arrival at a station of the given level on
// node: the per-level hop count plus a hop event on sp.
func (r *Recorder) Arrive(sp Span, level, node int, at float64) {
	if r == nil {
		return
	}
	r.AddAt(SeriesLevelHops, level, 1)
	sp.Event(EvHop, level, node, 0, at)
}

// Attempt accounts one transmission attempt toward node (retries included,
// mirroring the cost meter), with a retry event on sp from the second on.
func (r *Recorder) Attempt(sp Span, node int, cost float64, attempt int, at float64) {
	if r == nil {
		return
	}
	r.AddAt(SeriesNodeMsgs, node, 1)
	if attempt > 1 {
		sp.Event(EvRetry, -1, node, cost, at)
	}
}

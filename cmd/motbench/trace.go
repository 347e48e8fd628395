package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span, -1 at the top
	op         int64 // the replayed or sent operation it belongs to
}

// tracer keeps spans in a buffer allocated once; when it is full, new
// spans are counted as dropped instead of growing memory. A nil tracer
// records nothing. Spans may be added from any goroutine; they are read
// only after every recording goroutine has finished.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// curSpan and curOp name the replay call in flight, the parent of
	// spans the wrapper overlay and oracle record from node goroutines.
	curSpan atomic.Int32
	curOp   atomic.Int64
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, capacity)}
	t.curSpan.Store(-1)
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its index (-1 when dropped).
func (t *tracer) add(name string, start, end int64, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, start: start, end: end, parent: parent, op: op}
	return int32(i)
}

// begin opens a top-level replay span and makes it the parent of the
// wrapper spans recorded until end.
func (t *tracer) begin(name string, op int64) int32 {
	if t == nil {
		return -1
	}
	i := t.add(name, t.now(), 0, -1, op)
	t.curOp.Store(op)
	t.curSpan.Store(i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.curSpan.Store(-1)
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// child records a span under the replay call in flight.
func (t *tracer) child(name string, start, end int64) {
	if t == nil {
		return
	}
	t.add(name, start, end, t.curSpan.Load(), t.curOp.Load())
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// meanSelfUS returns, per span name, the mean self time in µs: a
// span's duration minus the part of it its child spans cover. Sampled
// children (graph.dist keeps one span in 64) cover only what they
// sampled, so a parent's self time includes its unsampled children.
func (t *tracer) meanSelfUS() map[string]float64 {
	spans := t.recorded()
	covered := make([]int64, len(spans))
	// Children of one parent do not overlap (a replay call is one
	// sequential chain of hops), so their clipped durations add up.
	for _, s := range spans {
		if s.parent < 0 || s.end == 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	sum, n := map[string]float64{}, map[string]float64{}
	for i, s := range spans {
		if s.end != 0 {
			sum[s.name] += float64(max(s.end-s.start-covered[i], 0)) / 1e3
			n[s.name]++
		}
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// layerLanes orders the Chrome-trace threads: one lane per layer, in
// call order, so Perfetto stacks the layers top to bottom.
var layerLanes = []string{"client", "serve", "runtime", "core", "experiments", "sim", "hier", "graph"}

func lane(name string) int {
	layer, _, _ := strings.Cut(name, ".")
	for i, l := range layerLanes {
		if l == layer {
			return i + 1
		}
	}
	return len(layerLanes) + 1
}

// writeChrome writes the recorded spans as Chrome trace-event JSON
// (complete "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := t.recorded()
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.end != 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, l := range layerLanes {
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}},`, i+1, l)
	}
	for k, i := range order {
		s := spans[i]
		if k > 0 {
			w.WriteByte(',')
		}
		var b []byte
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(lane(s.name)), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(s.end-s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"args":{"op":`...)
		b = strconv.AppendInt(b, s.op, 10)
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, "}}"...)
		w.Write(b)
	}
	fmt.Fprintf(w, `],"otherData":{"dropped_spans":%d}}`+"\n", t.dropped.Load())
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

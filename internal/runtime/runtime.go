// Package runtime is a live distributed realization of the MOT algorithm:
// every sensor node runs as its own goroutine with a message inbox, and
// publish / maintenance / query operations travel station to station
// through the network (costs accounted as shortest-path distances), as the
// message-passing protocol the paper describes (footnote 2 of §3: the
// iterative pseudocode "can be immediately converted to a message-passing
// based distributed algorithm").
//
// The measured reproductions use the sequential engine (internal/core) and
// the discrete-event simulator (internal/sim); this package demonstrates
// the same protocol running on real concurrent nodes and backs the
// examples. Operations can be observed via Options.Obs (spans and
// per-node metrics on a cost clock, see obs.go) and the opt-in debug
// HTTP endpoint (debug.go).
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/overlay"
	"repro/internal/runtime/track"
)

type slotKey struct {
	level int
	key   int64
}

type slotState struct {
	dl map[core.ObjectID]overlay.Station // downward pointer; Level<0 means proxy slot
}

// message is a mobile operation state traveling through the network.
type message struct {
	dest graph.NodeID // next node that must process it
	op   *opState
}

type opKind int

const (
	opPublish opKind = iota
	opInsertUp
	opDeleteDown
	opQueryUp
	opQueryDown
)

type opState struct {
	kind  opKind
	id    uint64 // operation number; with hop it keys fault decisions
	hop   int
	o     core.ObjectID
	path  overlay.Path
	level int             // current level being processed
	down  overlay.Station // target of the downward walk
	cost  float64
	reply chan result
	span  obs.Span
	at    float64 // cost-clock time the operation began
}

type result struct {
	proxy graph.NodeID
	cost  float64
	err   error
}

// Client-fault classification of operation errors, so front ends
// (internal/serve) can map them to request-level statuses without
// string matching. Both wrap into the same messages as before.
var (
	// ErrAlreadyPublished reports a Publish of an object that is
	// already tracked.
	ErrAlreadyPublished = errors.New("already published")
	// ErrNotPublished reports a Move or Query of an object the tracker
	// has never seen (or that was unpublished).
	ErrNotPublished = errors.New("not published")
)

// Tracker runs the distributed MOT protocol over an overlay, one goroutine
// per sensor node.
type Tracker struct {
	g  *graph.Graph
	m  graph.DistanceOracle
	ov overlay.Overlay

	inboxes []chan message
	quit    chan struct{}
	stopped sync.Once
	loops   track.Group

	// slots[n] is owned exclusively by node n's goroutine.
	slots []map[slotKey]*slotState

	locMu sync.Mutex
	loc   map[core.ObjectID]graph.NodeID
	objMu map[core.ObjectID]*sync.Mutex // per-object one-by-one serialization

	costMu    sync.Mutex
	totalCost float64

	// Fault injection (nil without chaos): opSeq numbers operations, the
	// injector decides per-attempt fates, crashed marks nodes explicitly
	// downed via Crash (the runtime has no simulated clock, so chaos crash
	// windows do not apply here), and simDelay accumulates the simulated
	// time lost to backoffs and slow deliveries.
	inj      *chaos.Injector
	opSeq    atomic.Uint64
	crashMu  sync.Mutex
	crashed  []bool
	delayMu  sync.Mutex
	simDelay float64

	// Observability (nil obs disables; see obs.go): the cost clock and
	// the in-flight operation count behind it.
	obs      *obs.Recorder
	obsMu    sync.Mutex
	obsNow   float64
	inflight int

	// Live wall-clock telemetry (nil disables — the pinned 0 allocs/op
	// fast path): per-op latency histograms + sampled spans, served by
	// ServeDebug's /debug/live endpoints. Never feeds measured output.
	live *live.Recorder
}

// Options configures a Tracker; the zero value runs fault-free with
// observability off.
type Options struct {
	// Chaos routes every message delivery through the fault injector.
	// Dropped attempts are retried up to the injector's MaxAttempts with
	// exponential backoff accounted in simulated time (no wall-clock
	// sleeping); exhausting the budget surfaces a typed
	// *chaos.DeliveryError on the blocked operation instead of hanging
	// it. Nil injects no faults.
	Chaos *chaos.Injector
	// Obs records spans and per-node metrics on the runtime's logical
	// cost clock (see obs.go). Nil disables it.
	Obs *obs.Recorder
	// Live is a wall-clock telemetry sink: each public operation's real
	// elapsed time lands in its histograms and span reservoir. Unlike
	// Obs, its data is non-deterministic by design and never reaches
	// measured artifacts — it surfaces only through ServeDebug, expvar,
	// and summaries. Nil keeps the zero-allocation disabled path.
	Live *live.Recorder
}

// New starts a tracker: one goroutine per sensor node of the overlay's
// graph. At most one Options may be given; omitting it is the zero
// value. Call Stop when done.
func New(g *graph.Graph, ov overlay.Overlay, opt ...Options) *Tracker {
	var o Options
	if len(opt) > 0 {
		o = opt[0]
	}
	t := &Tracker{
		g:       g,
		m:       ov.Metric(),
		ov:      ov,
		inboxes: make([]chan message, g.N()),
		quit:    make(chan struct{}),
		slots:   make([]map[slotKey]*slotState, g.N()),
		loc:     make(map[core.ObjectID]graph.NodeID),
		objMu:   make(map[core.ObjectID]*sync.Mutex),
		inj:     o.Chaos,
		crashed: make([]bool, g.N()),
		obs:     o.Obs,
		live:    o.Live,
	}
	for i := range t.inboxes {
		t.inboxes[i] = make(chan message, 256)
		t.slots[i] = make(map[slotKey]*slotState)
	}
	for i := 0; i < g.N(); i++ {
		id := graph.NodeID(i)
		t.loops.Go(func() { t.nodeLoop(id) })
	}
	return t
}

// Stop shuts down all node goroutines. Pending operations are abandoned.
// Stop is idempotent and safe to call concurrently; every call blocks
// until the loops have drained.
func (t *Tracker) Stop() {
	t.stopped.Do(func() { close(t.quit) })
	t.loops.Wait()
}

// Crash marks node n as down: messages addressed to it are dropped (and
// retried by senders) until Recover. Out-of-range nodes are ignored.
// Crashing affects message delivery only; operations already executing at
// the node finish (sensor radio down, CPU alive).
func (t *Tracker) Crash(n graph.NodeID) {
	st := t.live.Start()
	t.setCrashed(n, true)
	t.live.Observe(live.ClassRecovery, st, int(n), nil)
}

// Recover marks node n as up again.
func (t *Tracker) Recover(n graph.NodeID) {
	st := t.live.Start()
	t.setCrashed(n, false)
	t.live.Observe(live.ClassRecovery, st, int(n), nil)
}

func (t *Tracker) setCrashed(n graph.NodeID, down bool) {
	if int(n) < 0 || int(n) >= len(t.crashed) {
		return
	}
	t.crashMu.Lock()
	t.crashed[n] = down
	t.crashMu.Unlock()
}

func (t *Tracker) isCrashed(n graph.NodeID) bool {
	t.crashMu.Lock()
	defer t.crashMu.Unlock()
	return t.crashed[n]
}

// SimulatedDelay returns the total simulated time spent in retransmission
// backoffs and injected delivery delays (the runtime executes them
// instantly — determinism forbids wall-clock sleeps — but accounts them).
func (t *Tracker) SimulatedDelay() float64 {
	t.delayMu.Lock()
	defer t.delayMu.Unlock()
	return t.simDelay
}

func (t *Tracker) addDelay(d float64) {
	t.delayMu.Lock()
	t.simDelay += d
	t.delayMu.Unlock()
}

// FaultTrace returns the injector's fault trace (nil without chaos).
func (t *Tracker) FaultTrace() *chaos.Trace {
	if t.inj == nil {
		return nil
	}
	return t.inj.Trace()
}

// LiveRecorder returns the tracker's wall-clock telemetry sink (nil
// when live telemetry is off).
func (t *Tracker) LiveRecorder() *live.Recorder { return t.live }

// Cost returns the total distance traveled by all messages so far.
func (t *Tracker) Cost() float64 {
	t.costMu.Lock()
	defer t.costMu.Unlock()
	return t.totalCost
}

// Location returns the current proxy of o.
func (t *Tracker) Location(o core.ObjectID) (graph.NodeID, bool) {
	t.locMu.Lock()
	defer t.locMu.Unlock()
	v, ok := t.loc[o]
	return v, ok
}

func (t *Tracker) objLock(o core.ObjectID) *sync.Mutex {
	t.locMu.Lock()
	defer t.locMu.Unlock()
	mu, ok := t.objMu[o]
	if !ok {
		mu = &sync.Mutex{}
		t.objMu[o] = mu
	}
	return mu
}

// send routes a message from node `from` toward op processing at dest,
// accounting the shortest-path distance (the cost model of §1.1). With a
// fault injector installed, each attempt's fate is a pure hash of the
// message identity (op, hop, attempt): drops are retried after simulated
// backoff (accounted, never slept) until MaxAttempts, then the operation
// unblocks with a typed *chaos.DeliveryError instead of hanging.
//
//motlint:hotpath
func (t *Tracker) send(from graph.NodeID, msg message) {
	op := msg.op
	d := t.m.Dist(from, msg.dest)
	op.hop++
	hop := op.hop
	for attempt := 1; ; attempt++ {
		t.costMu.Lock()
		t.totalCost += d
		t.costMu.Unlock()
		op.cost += d
		t.obsAttempt(op, msg.dest, d, attempt)
		if t.inj == nil {
			t.deliver(msg)
			return
		}
		var drop bool
		var extra float64
		if t.isCrashed(msg.dest) {
			t.inj.DropForced(op.id, hop, attempt, msg.dest)
			drop = true
		} else {
			drop, extra = t.inj.Attempt(op.id, hop, attempt, msg.dest, d, -1)
		}
		if !drop {
			if extra > 0 {
				t.addDelay(extra)
			}
			t.deliver(msg)
			return
		}
		if attempt >= t.inj.MaxAttempts() {
			op.reply <- result{err: t.inj.Fail(op.id, hop, attempt, msg.dest, -1)}
			return
		}
		t.addDelay(d + t.inj.Backoff(attempt))
	}
}

// deliver forwards the message hop by hop to its destination inbox.
//
//motlint:hotpath
func (t *Tracker) deliver(msg message) {
	select {
	case t.inboxes[msg.dest] <- msg:
	case <-t.quit:
	}
}

// nodeLoop is one sensor's event loop.
//
//motlint:hotpath
func (t *Tracker) nodeLoop(id graph.NodeID) {
	for {
		select {
		case <-t.quit:
			return
		case msg := <-t.inboxes[id]:
			t.handle(id, msg.op)
		}
	}
}

func (t *Tracker) slot(n graph.NodeID, st overlay.Station) *slotState {
	k := slotKey{st.Level, st.Key}
	s, ok := t.slots[n][k]
	if !ok {
		//motlint:ignore hotalloc lazy one-time materialization of a node's slot
		s = &slotState{dl: make(map[core.ObjectID]overlay.Station)}
		t.slots[n][k] = s
	}
	return s
}

// proxyMark is the sentinel downward pointer of a bottom-level proxy slot.
var proxyMark = overlay.Station{Level: -1}

// handle processes an operation arriving at node n. The node owns its slot
// state; all mutation happens here.
func (t *Tracker) handle(n graph.NodeID, op *opState) {
	switch op.kind {
	case opPublish, opInsertUp:
		st := op.path[op.level][0]
		t.obsArrive(op, op.level, n)
		s := t.slot(n, st)
		if op.kind == opInsertUp && op.level > 0 {
			if old, ok := s.dl[op.o]; ok {
				// Peak: repoint and start the delete downward.
				s.dl[op.o] = op.path[op.level-1][0]
				t.obsEvent(op, obs.EvPeak, op.level, n, 0)
				t.obsEvent(op, obs.EvStamp, op.level, n, 0)
				op.kind = opDeleteDown
				op.down = old
				t.send(n, message{dest: old.Host, op: op})
				return
			}
		}
		if op.level == 0 {
			s.dl[op.o] = proxyMark
		} else {
			s.dl[op.o] = op.path[op.level-1][0]
		}
		t.obsEvent(op, obs.EvStamp, op.level, n, 0)
		if op.level+1 < len(op.path) {
			op.level++
			t.send(n, message{dest: op.path[op.level][0].Host, op: op})
			return
		}
		op.reply <- result{proxy: n, cost: op.cost}
	case opDeleteDown:
		st := op.down
		t.obsArrive(op, st.Level, n)
		s := t.slot(n, st)
		next, ok := s.dl[op.o]
		if !ok {
			op.reply <- result{err: fmt.Errorf("runtime: delete lost trail of object %d at %v", op.o, st)}
			return
		}
		delete(s.dl, op.o)
		t.obsEvent(op, obs.EvWipe, st.Level, n, 0)
		if next == proxyMark {
			op.reply <- result{proxy: n, cost: op.cost}
			return
		}
		op.down = next
		t.send(n, message{dest: next.Host, op: op})
	case opQueryUp:
		st := op.path[op.level][0]
		t.obsArrive(op, op.level, n)
		s := t.slot(n, st)
		if next, ok := s.dl[op.o]; ok {
			t.obsEvent(op, obs.EvPeak, op.level, n, 0)
			if next == proxyMark {
				op.reply <- result{proxy: n, cost: op.cost}
				return
			}
			op.kind = opQueryDown
			op.down = next
			t.send(n, message{dest: next.Host, op: op})
			return
		}
		if op.level+1 >= len(op.path) {
			op.reply <- result{err: fmt.Errorf("runtime: query for object %d passed the root", op.o)}
			return
		}
		op.level++
		t.send(n, message{dest: op.path[op.level][0].Host, op: op})
	case opQueryDown:
		st := op.down
		t.obsArrive(op, st.Level, n)
		s := t.slot(n, st)
		next, ok := s.dl[op.o]
		if !ok {
			op.reply <- result{err: fmt.Errorf("runtime: query lost trail of object %d at %v", op.o, st)}
			return
		}
		if next == proxyMark {
			op.reply <- result{proxy: n, cost: op.cost}
			return
		}
		op.down = next
		t.send(n, message{dest: next.Host, op: op})
	}
}

// Publish introduces o at sensor node at and blocks until the detection
// trail reaches the root.
func (t *Tracker) Publish(o core.ObjectID, at graph.NodeID) error {
	st := t.live.Start()
	err := t.publish(o, at)
	t.live.Observe(live.ClassPublish, st, int(o), err)
	return err
}

func (t *Tracker) publish(o core.ObjectID, at graph.NodeID) error {
	mu := t.objLock(o)
	mu.Lock()
	defer mu.Unlock()
	t.locMu.Lock()
	if _, ok := t.loc[o]; ok {
		t.locMu.Unlock()
		return fmt.Errorf("runtime: object %d %w", o, ErrAlreadyPublished)
	}
	t.loc[o] = at
	t.locMu.Unlock()
	op := &opState{kind: opPublish, id: t.opSeq.Add(1), o: o, path: t.ov.DPath(at), reply: make(chan result, 1)}
	t.obsBegin(obs.OpPublish, op)
	t.deliver(message{dest: at, op: op})
	res := <-op.reply
	if res.err != nil {
		t.obsEvent(op, obs.EvAbort, -1, at, 0)
	}
	t.obsEnd(op)
	return res.err
}

// Move reports that o moved to sensor node to; it blocks until the
// maintenance operation (insert and delete) completes. Moves of the same
// object serialize (the one-by-one discipline); different objects proceed
// concurrently on the node goroutines.
func (t *Tracker) Move(o core.ObjectID, to graph.NodeID) error {
	st := t.live.Start()
	err := t.move(o, to)
	t.live.Observe(live.ClassMove, st, int(o), err)
	return err
}

func (t *Tracker) move(o core.ObjectID, to graph.NodeID) error {
	mu := t.objLock(o)
	mu.Lock()
	defer mu.Unlock()
	t.locMu.Lock()
	from, ok := t.loc[o]
	if !ok {
		t.locMu.Unlock()
		return fmt.Errorf("runtime: object %d %w", o, ErrNotPublished)
	}
	if from == to {
		t.locMu.Unlock()
		return nil
	}
	t.loc[o] = to
	t.locMu.Unlock()
	op := &opState{kind: opInsertUp, id: t.opSeq.Add(1), o: o, path: t.ov.DPath(to), reply: make(chan result, 1)}
	t.obsBegin(obs.OpMove, op)
	// The bottom-level stamp happens at the new proxy itself.
	t.deliver(message{dest: to, op: op})
	res := <-op.reply
	if res.err != nil {
		t.obsEvent(op, obs.EvAbort, -1, to, 0)
	}
	t.obsEnd(op)
	if res.err != nil {
		return res.err
	}
	if res.proxy != from {
		return fmt.Errorf("runtime: delete for object %d ended at %d, expected old proxy %d", o, res.proxy, from)
	}
	return nil
}

// Query locates o from sensor node from, returning the proxy node and the
// communication cost of the query's search walk.
func (t *Tracker) Query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	st := t.live.Start()
	proxy, cost, err := t.query(from, o)
	t.live.Observe(live.ClassQuery, st, int(o), err)
	return proxy, cost, err
}

func (t *Tracker) query(from graph.NodeID, o core.ObjectID) (graph.NodeID, float64, error) {
	t.locMu.Lock()
	_, ok := t.loc[o]
	t.locMu.Unlock()
	if !ok {
		return graph.Undefined, 0, fmt.Errorf("runtime: object %d %w", o, ErrNotPublished)
	}
	// Queries share the object's serialization lock so they never observe
	// a half-updated trail (the runtime's one-by-one discipline).
	mu := t.objLock(o)
	mu.Lock()
	defer mu.Unlock()
	op := &opState{kind: opQueryUp, id: t.opSeq.Add(1), o: o, path: t.ov.DPath(from), reply: make(chan result, 1)}
	t.obsBegin(obs.OpQuery, op)
	t.deliver(message{dest: from, op: op})
	res := <-op.reply
	if res.err != nil {
		t.obsEvent(op, obs.EvAbort, -1, from, 0)
	}
	t.obsEnd(op)
	return res.proxy, res.cost, res.err
}

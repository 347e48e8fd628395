// Package runtime is a live distributed realization of the MOT algorithm:
// publish / maintenance / query operations travel station to station
// through the network as per-hop messages (costs accounted as
// shortest-path distances), as the message-passing protocol the paper
// describes (footnote 2 of §3: the iterative pseudocode "can be
// immediately converted to a message-passing based distributed
// algorithm").
//
// The tracker drives core's station handler, the one Algorithm 1 the
// measured reproductions (internal/core, internal/sim) run. Operations
// walk station to station on the caller's goroutine: each visit runs
// under one store lock, then the message is sent to the next station's
// host, with per-attempt cost, fault decision and hop number. A failed
// operation is rolled back. Operations can be observed via Options.Obs
// (spans and per-node metrics on a cost clock, see obs.go), Options.Live
// (wall-clock latencies) and the diagnostics handler DebugMux
// (debug.go).
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
)

// objStripes is the size of the per-object lock table: the operations of
// one object serialize on the stripe its ID selects.
const objStripes = 1024

// opState is one operation in flight.
type opState struct {
	msg core.Msg
	id  uint64 // operation number; with hop it keys fault decisions
	hop int
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
	// ErrStopped reports an operation issued after Stop.
	ErrStopped = errors.New("tracker stopped")
)

// Tracker runs the distributed MOT protocol over an overlay. Each
// operation walks station to station on the goroutine that called it.
type Tracker struct {
	m       graph.DistanceOracle
	n       int // sensor nodes
	stopped atomic.Bool

	// mu is the store lock: every station visit runs under it.
	mu  sync.Mutex
	h   *core.Handler
	loc map[core.ObjectID]graph.NodeID

	// objMu serializes each object's operations (the one-by-one
	// discipline); an operation holds one stripe.
	objMu [objStripes]sync.Mutex

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
	// DebugMux's /debug/live endpoints. Never feeds measured output.
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
	// measured artifacts — it surfaces only through DebugMux and
	// summaries. Nil keeps the zero-allocation disabled path.
	Live *live.Recorder
}

// New returns a tracker over the overlay's graph; it starts no
// goroutine. At most one Options may be given; omitting it is the zero
// value.
func New(g *graph.Graph, ov overlay.Overlay, opt ...Options) *Tracker {
	var o Options
	if len(opt) > 0 {
		o = opt[0]
	}
	return &Tracker{
		m:       ov.Metric(),
		n:       g.N(),
		h:       core.NewHandler(ov, core.Config{}),
		loc:     make(map[core.ObjectID]graph.NodeID),
		inj:     o.Chaos,
		crashed: make([]bool, g.N()),
		obs:     o.Obs,
		live:    o.Live,
	}
}

// Stop marks the tracker stopped: operations issued afterwards fail with
// ErrStopped, while operations already walking finish. Stop is
// idempotent and safe to call concurrently.
func (t *Tracker) Stop() { t.stopped.Store(true) }

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
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.loc[o]
	return v, ok
}

// CheckInvariants runs core's check over the store, at quiescence only.
func (t *Tracker) CheckInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h.CheckInvariants(t.loc)
}

// LoadByNode returns the number of DL and SDL entries stored at each
// sensor node.
func (t *Tracker) LoadByNode() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h.LoadByNode(t.n)
}

// lock takes o's stripe for one operation, or fails once the tracker is
// stopped.
func (t *Tracker) lock(o core.ObjectID) (*sync.Mutex, error) {
	if t.stopped.Load() {
		return nil, fmt.Errorf("runtime: object %d: %w", o, ErrStopped)
	}
	mu := &t.objMu[uint64(o)%objStripes]
	mu.Lock()
	return mu, nil
}

// send moves op's message on to the next station the handler named,
// accounting the shortest-path distance (the cost model of §1.1). With a
// fault injector installed, each attempt's fate is a pure hash of the
// message identity (op, hop, attempt): drops are retried after simulated
// backoff (accounted, never slept) until MaxAttempts, then the operation
// fails with a typed *chaos.DeliveryError instead of hanging.
//
//motlint:hotpath
func (t *Tracker) send(op *opState) error {
	m := &op.msg
	dest := m.Next.Host
	d := t.m.Dist(m.At.Host, dest)
	op.hop++
	hop := op.hop
	for attempt := 1; ; attempt++ {
		t.costMu.Lock()
		t.totalCost += d
		t.costMu.Unlock()
		m.Cost += d
		t.obs.Attempt(m.Span, int(dest), d, attempt, m.Now)
		if t.inj == nil {
			m.At = m.Next
			return nil
		}
		var drop bool
		var extra float64
		if t.isCrashed(dest) {
			t.inj.DropForced(op.id, hop, attempt, dest)
			drop = true
		} else {
			drop, extra = t.inj.Attempt(op.id, hop, attempt, dest, d, -1)
		}
		if !drop {
			if extra > 0 {
				t.addDelay(extra)
			}
			m.At = m.Next
			return nil
		}
		if attempt >= t.inj.MaxAttempts() {
			return t.inj.Fail(op.id, hop, attempt, dest, -1)
		}
		t.addDelay(d + t.inj.Backoff(attempt))
	}
}

// run walks op inside its obs span; a failed walk marks the span aborted.
func (t *Tracker) run(kind string, op *opState) error {
	t.obsBegin(kind, op)
	err := t.walk(op)
	if err != nil {
		op.msg.Span.Event(obs.EvAbort, -1, int(op.msg.Owner), 0, op.msg.Now)
	}
	t.obsEnd(op)
	return err
}

// walk runs op from its origin station — that first delivery is not a
// hop — on the caller's goroutine: one visit under the store lock, then a
// send to the next station, until the handler stops.
//
//motlint:hotpath
func (t *Tracker) walk(op *opState) error {
	m := &op.msg
	for {
		t.obs.Arrive(m.Span, m.At.Level, int(m.At.Host), m.Now)
		switch v := t.visit(m); v {
		case core.Forward:
			if err := t.send(op); err != nil {
				return err
			}
		case core.Done:
			return nil
		default:
			return fmt.Errorf("runtime: object %d: %v at %v", m.Obj, v, m.At)
		}
	}
}

// visit runs the handler at m's station under the store lock until it
// leaves the station. The deferred unlock releases the lock even when a
// step panics, so the tracker's later operations do not hang.
//
//motlint:hotpath
func (t *Tracker) visit(m *core.Msg) core.Verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.h.Step(m)
	for v == core.LevelDone {
		v = t.h.Step(m)
	}
	return v
}

// newOp numbers a new operation, which also versions its stamps.
func (t *Tracker) newOp(kind core.MsgKind, o core.ObjectID, at graph.NodeID) opState {
	id := t.opSeq.Add(1)
	return opState{msg: t.h.NewMsg(kind, o, id, at), id: id}
}

// rollback undoes o's failed operation in place: core's wipe, then (keep)
// the home chain of at re-stamped at ver, the simulator's repair (not Cost).
func (t *Tracker) rollback(o core.ObjectID, ver uint64, at graph.NodeID, keep bool) {
	m := t.h.NewMsg(core.PublishMsg, o, ver, at)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h.Wipe(&m)
	if keep {
		t.h.Walk(&m, nil)
	}
}

// Publish introduces o at sensor node at and returns once the detection
// trail reaches the root. A failed publish has no effect.
func (t *Tracker) Publish(o core.ObjectID, at graph.NodeID) error {
	st := t.live.Start()
	err := t.publish(o, at)
	t.live.Observe(live.ClassPublish, st, int(o), err)
	return err
}

func (t *Tracker) publish(o core.ObjectID, at graph.NodeID) error {
	if err := t.h.CheckSensor(at); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	mu, err := t.lock(o)
	if err != nil {
		return err
	}
	defer mu.Unlock()
	if _, ok := t.Location(o); ok {
		return fmt.Errorf("runtime: object %d %w", o, ErrAlreadyPublished)
	}
	op := t.newOp(core.PublishMsg, o, at)
	if err := t.run(obs.OpPublish, &op); err != nil {
		t.rollback(o, 0, at, false)
		return err
	}
	t.mu.Lock()
	t.loc[o] = at
	t.mu.Unlock()
	return nil
}

// Move reports that o moved to sensor node to; it returns when the
// maintenance operation (insert and delete) has walked to completion on
// the caller's goroutine. Moves of the same object serialize (the
// one-by-one discipline); operations on different objects interleave
// visit by visit on their callers' goroutines. A failed move has no
// effect: the object stays at its previous proxy, with its trail intact.
func (t *Tracker) Move(o core.ObjectID, to graph.NodeID) error {
	st := t.live.Start()
	err := t.move(o, to)
	t.live.Observe(live.ClassMove, st, int(o), err)
	return err
}

func (t *Tracker) move(o core.ObjectID, to graph.NodeID) error {
	if err := t.h.CheckSensor(to); err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	mu, err := t.lock(o)
	if err != nil {
		return err
	}
	defer mu.Unlock()
	from, ok := t.Location(o)
	if !ok {
		return fmt.Errorf("runtime: object %d %w", o, ErrNotPublished)
	}
	if from == to {
		return nil
	}
	op := t.newOp(core.MoveMsg, o, to)
	err = t.run(obs.OpMove, &op)
	if err == nil && op.msg.At.Host != from {
		err = fmt.Errorf("runtime: delete for object %d ended at %d, expected old proxy %d", o, op.msg.At.Host, from)
	}
	if err != nil {
		t.rollback(o, op.id, from, true)
		return err
	}
	t.mu.Lock()
	t.loc[o] = to
	t.mu.Unlock()
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
	if err := t.h.CheckSensor(from); err != nil {
		return graph.Undefined, 0, fmt.Errorf("runtime: %w", err)
	}
	// Queries share the object's serialization lock so they never observe
	// a half-updated trail (the runtime's one-by-one discipline).
	mu, err := t.lock(o)
	if err != nil {
		return graph.Undefined, 0, err
	}
	defer mu.Unlock()
	proxy, ok := t.Location(o)
	if !ok {
		return graph.Undefined, 0, fmt.Errorf("runtime: object %d %w", o, ErrNotPublished)
	}
	op := t.newOp(core.QueryMsg, o, from)
	op.msg.Truth = proxy
	if err := t.run(obs.OpQuery, &op); err != nil {
		return graph.Undefined, 0, err
	}
	return op.msg.At.Host, op.msg.Cost, nil
}

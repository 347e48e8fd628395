// Package sim provides a discrete-event simulation of concurrent MOT and
// baseline executions (the paper's "concurrent case", §4.1.2 and §4.2.2).
// MOTSim is a driver of core's station handler, the one Algorithm 1, and
// TreeSim a driver of treedir's per-node handler, the one set of
// pruning-tree rules behind the STUN and Z-DAT baselines.
//
// Time is measured in the paper's unit: the duration a message needs to
// travel unit distance, so delivering a message between hosts u and v takes
// dist(u, v) time. Maintenance operations for the same object may overlap
// in flight; the simulator enforces the paper's two concurrency mechanisms:
//
//   - per-level periods Φ(i) = 2^i·φ gate when an operation may cross from
//     level i to i+1 (§4.1.2), and
//   - same-object maintenance operations are pipelined — operation v may not
//     process level k before operation v-1 has finished processing level k —
//     the ordering that the ID-ordered parent-set probing of §3.1 provides
//     in the message-passing algorithm.
//
// Queries run fully concurrently with maintenance: a query that loses the
// trail restarts its climb from where it stands, and one that reaches a
// stale proxy waits for the delete message, which carries the new proxy
// (§3, "In this way, queries can be successful even while a move is in
// progress").
//
// The engine fires events in (at, seq) order, seq numbering every
// scheduling call, so events at equal times fire in the order they were
// scheduled. Its queue has two lanes. Schedule queues every move before
// Run in time order, so each joins an append-only scheduled lane in O(1).
// An event earlier than that lane's last one goes to a binary heap
// instead, so the heap holds only the hops in flight and the randomly
// timed queries. A heap entry is (at, seq, slot), the slot indexing a
// table of actions with a free list threaded through it, so no sift moves
// a pointer. Run fires the earlier of the two heads. Each
// lane is ordered by (at, seq) and no two events share it, so the merge
// fires every event exactly where one priority queue would. An operation
// has at most one message pending, so the drivers' operations are their
// own events: a flight names its pending leg and is scheduled as a
// pointer, and a hop allocates nothing.
package sim

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// action is what an event does when it fires: a driver's flight, or a
// func that At or After wrapped in call.
type action interface{ Fire() }

// call adapts a func to action. A func value is one pointer, so storing
// it in the interface does not allocate.
type call func()

func (c call) Fire() { c() }

// key is an event's place in the firing order. (at, seq) is unique, seq
// breaking ties between equal times first-scheduled-first.
type key struct {
	at  float64
	seq int64
}

func (a key) before(b key) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// event is an event on the scheduled lane: its key and its action.
type event struct {
	key
	act action
}

// entry is an event on the heap: its key and the table slot that holds its
// action. An entry holds no pointer, so a sift moves it without a write
// barrier.
type entry struct {
	key
	slot int
}

// cell i of the heap slice holds the heap's i-th entry and slot i of the
// action table. A sift moves entries only; an action stays in its slot
// from push to pop. Every queued entry owns one slot, so the table never
// has more slots than the heap has held entries at once, and the append
// that grows the heap grows the table with it.
type cell struct {
	entry
	act  action // nil while the slot is free
	free int    // while the slot is free: 1 + the next free slot, 0 at the end
}

// Engine is a deterministic discrete-event executor over the two-lane
// queue the package doc describes.
type Engine struct {
	now    float64
	seq    int64
	lane   []event // the scheduled lane, fired from lane[head] on
	head   int
	heap   []cell // heap[:queued] is a binary min-heap of entries
	queued int
	free   int // 1 + the first free slot of the action table, 0 if none
	steps  int64
	limit  int64
	faults FaultInjector
	obs    *obs.Recorder
}

// NewEngine returns an engine with the given step limit (a safety net
// against runaway simulations; <= 0 means a generous default).
func NewEngine(limit int64) *Engine {
	if limit <= 0 {
		limit = 200_000_000
	}
	return &Engine{limit: limit}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (clamped to now for past times).
func (e *Engine) At(t float64, fn func()) { e.schedule(t, call(fn)) }

// After schedules fn delay time units from now (a negative delay means
// now).
func (e *Engine) After(delay float64, fn func()) { e.schedule(e.now+delay, call(fn)) }

// reserve makes room on the scheduled lane for n more events, so a
// caller that knows how many it will queue before Run grows the lane once.
func (e *Engine) reserve(n int) { e.lane = slices.Grow(e.lane, n) }

// schedule queues a at absolute time t (clamped to now for past times).
func (e *Engine) schedule(t float64, a action) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	k := key{at: t, seq: e.seq}
	if n := len(e.lane); n == 0 || t >= e.lane[n-1].at {
		e.lane = append(e.lane, event{key: k, act: a})
		return
	}
	e.push(k, a)
}

// push puts a in a free slot, or in a new cell when every slot is taken,
// and sifts its entry up from the end of the heap.
func (e *Engine) push(k key, a action) {
	s := e.free - 1
	if s < 0 {
		s = len(e.heap) // every slot is taken, so queued == len(e.heap)
		e.heap = append(e.heap, cell{})
	} else {
		e.free = e.heap[s].free
	}
	h := e.heap
	h[s].act = a
	i := e.queued
	e.queued++
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(h[p].key) {
			break
		}
		h[i].entry = h[p].entry
		i = p
	}
	h[i].entry = entry{key: k, slot: s}
}

// pop removes the heap's earliest event and frees its slot, clearing the
// action so it can be collected.
func (e *Engine) pop() (float64, action) {
	h := e.heap
	top := h[0].entry
	e.queued--
	n := e.queued
	last := h[n].entry
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].key) {
			c = r
		}
		if !h[c].before(last.key) {
			break
		}
		h[i].entry = h[c].entry
		i = c
	}
	h[i].entry = last
	act := h[top.slot].act
	h[top.slot].act, h[top.slot].free = nil, e.free
	e.free = top.slot + 1
	return top.at, act
}

// next removes the earliest event of the two lanes, which must not both
// be empty, and returns its time and action.
func (e *Engine) next() (float64, action) {
	if e.head < len(e.lane) && (e.queued == 0 || e.lane[e.head].before(e.heap[0].key)) {
		ev := e.lane[e.head]
		e.lane[e.head] = event{}
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
		return ev.at, ev.act
	}
	return e.pop()
}

// SetObs installs a recorder for the engine's queue-depth and step-count
// gauges; nil disables them.
func (e *Engine) SetObs(r *obs.Recorder) { e.obs = r }

// Run processes events until the queue drains. It returns an error if the
// step limit is exceeded (which indicates a protocol livelock).
func (e *Engine) Run() error {
	for e.Pending() > 0 {
		if e.obs != nil {
			e.obs.GaugeMax("engine.queue", float64(e.Pending()))
		}
		at, act := e.next()
		e.now = at
		e.steps++
		if e.steps > e.limit {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v (livelock?)", e.limit, e.now)
		}
		act.Fire()
	}
	if e.obs != nil {
		e.obs.GaugeMax("engine.steps", float64(e.steps))
	}
	return nil
}

// Pending returns the number of queued events in both lanes.
func (e *Engine) Pending() int { return len(e.lane) - e.head + e.queued }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() int64 { return e.steps }

// FaultInjector decides the fate of message deliveries. It is satisfied by
// chaos.Injector; sim does not import chaos so the simulator stays
// fault-agnostic when no injector is installed.
type FaultInjector interface {
	// Attempt decides one delivery attempt: drop it (retry after backoff)
	// or deliver it with extraDelay added to the travel time.
	Attempt(op uint64, hop, attempt int, dest graph.NodeID, dist, now float64) (drop bool, extraDelay float64)
	// MaxAttempts bounds retransmissions per message.
	MaxAttempts() int
	// Backoff returns the simulated-time wait after failed attempt k.
	Backoff(attempt int) float64
	// Fail builds the typed error surfaced when attempts are exhausted.
	Fail(op uint64, hop, attempts int, dest graph.NodeID, now float64) error
}

// Message is a message in flight through the fault layer.
type Message interface {
	// Attempt is called once per transmission attempt n (from 1), before
	// its fate is decided: the place to account retransmission cost.
	Attempt(n int)
	// Fire runs at the destination when an attempt gets through.
	Fire()
	// Fail runs when MaxAttempts attempts all dropped, with the injector's
	// typed error.
	Fail(err error)
}

// Delivery is one message send through the fault layer.
type Delivery struct {
	// Op and Hop identify the message within its operation (the logical
	// key fault decisions hash).
	Op  uint64
	Hop int
	// Dest is the destination node, Dist the travel distance (= fault-free
	// travel time).
	Dest graph.NodeID
	Dist float64
	// Msg is charged for each attempt, then fired at Dest or failed.
	Msg Message
}

// SetFaults installs a fault injector; nil restores fault-free delivery.
func (e *Engine) SetFaults(f FaultInjector) { e.faults = f }

// Deliver sends one message. Without an injector this is exactly
// Msg.Attempt(1) then Msg.Fire after Dist, so fault-free runs are
// byte-identical to the pre-chaos engine. With an injector, dropped
// attempts are retried after the attempt's timeout (Dist) plus exponential
// backoff, and exhausting the budget calls Msg.Fail with the injector's
// typed error.
func (e *Engine) Deliver(d Delivery) {
	if e.faults == nil {
		d.Msg.Attempt(1)
		e.schedule(e.now+d.Dist, d.Msg)
		return
	}
	e.deliverAttempt(d, 1)
}

func (e *Engine) deliverAttempt(d Delivery, attempt int) {
	d.Msg.Attempt(attempt)
	drop, extra := e.faults.Attempt(d.Op, d.Hop, attempt, d.Dest, d.Dist, e.now)
	if !drop {
		e.schedule(e.now+(d.Dist+extra), d.Msg)
		return
	}
	if attempt >= e.faults.MaxAttempts() {
		d.Msg.Fail(e.faults.Fail(d.Op, d.Hop, attempt, d.Dest, e.now))
		return
	}
	// The sender learns of the loss after the attempt's timeout (one
	// travel time), then waits out the backoff before retransmitting.
	e.After(d.Dist+e.faults.Backoff(attempt), func() {
		e.deliverAttempt(d, attempt+1)
	})
}

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
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// event is a scheduled continuation.
type event struct {
	at  float64
	seq int64 // FIFO tie-break for equal times
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a deterministic discrete-event executor.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
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
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// SetObs installs a recorder for the engine's queue-depth and step-count
// gauges; nil disables them.
func (e *Engine) SetObs(r *obs.Recorder) { e.obs = r }

// Run processes events until the queue drains. It returns an error if the
// step limit is exceeded (which indicates a protocol livelock).
func (e *Engine) Run() error {
	for e.events.Len() > 0 {
		if e.obs != nil {
			e.obs.GaugeMax("engine.queue", float64(e.events.Len()))
		}
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		e.steps++
		if e.steps > e.limit {
			return fmt.Errorf("sim: step limit %d exceeded at t=%v (livelock?)", e.limit, e.now)
		}
		ev.fn()
	}
	if e.obs != nil {
		e.obs.GaugeMax("engine.steps", float64(e.steps))
	}
	return nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.events.Len() }

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
	// OnAttempt is invoked once per transmission attempt, before its fate
	// is decided — the place to account retransmission cost.
	OnAttempt func(attempt int)
	// Fn runs at the destination when an attempt gets through.
	Fn func()
	// OnFail runs when MaxAttempts attempts all dropped. Nil panics the
	// simulation (callers must handle failure when faults are installed).
	OnFail func(err error)
}

// SetFaults installs a fault injector; nil restores fault-free delivery.
func (e *Engine) SetFaults(f FaultInjector) { e.faults = f }

// Deliver sends one message. Without an injector this is exactly
// After(d.Dist, d.Fn) plus the OnAttempt(1) accounting callback, so
// fault-free runs are byte-identical to the pre-chaos engine. With an
// injector, dropped attempts are retried after the attempt's timeout
// (Dist) plus exponential backoff, and exhausting the budget invokes
// OnFail with the injector's typed error.
func (e *Engine) Deliver(d Delivery) {
	if e.faults == nil {
		if d.OnAttempt != nil {
			d.OnAttempt(1)
		}
		e.After(d.Dist, d.Fn)
		return
	}
	e.deliverAttempt(d, 1)
}

func (e *Engine) deliverAttempt(d Delivery, attempt int) {
	if d.OnAttempt != nil {
		d.OnAttempt(attempt)
	}
	drop, extra := e.faults.Attempt(d.Op, d.Hop, attempt, d.Dest, d.Dist, e.now)
	if !drop {
		e.After(d.Dist+extra, d.Fn)
		return
	}
	if attempt >= e.faults.MaxAttempts() {
		err := e.faults.Fail(d.Op, d.Hop, attempt, d.Dest, e.now)
		if d.OnFail == nil {
			panic(fmt.Sprintf("sim: unhandled delivery failure: %v", err))
		}
		d.OnFail(err)
		return
	}
	// The sender learns of the loss after the attempt's timeout (one
	// travel time), then waits out the backoff before retransmitting.
	e.After(d.Dist+e.faults.Backoff(attempt), func() {
		e.deliverAttempt(d, attempt+1)
	})
}

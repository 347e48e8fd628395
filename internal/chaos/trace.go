package chaos

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Event is one recorded fault occurrence.
type Event struct {
	// Kind is "drop" (hashed loss), "crash" (loss to a crashed node),
	// "delay" (slowed delivery), or "fail" (attempts exhausted).
	Kind string
	// Op, Hop, Attempt identify the message attempt the fault hit.
	Op           uint64
	Hop, Attempt int
	// Node is the message destination.
	Node graph.NodeID
	// At is the simulated time of the fault (-1 on substrates without a
	// simulated clock).
	At float64
	// Amount is the extra delay of a "delay" event.
	Amount float64
}

// String renders the event as one stable trace line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind)
	b.WriteString(" op=")
	b.WriteString(strconv.FormatUint(e.Op, 10))
	b.WriteString(" hop=")
	b.WriteString(strconv.Itoa(e.Hop))
	b.WriteString(" attempt=")
	b.WriteString(strconv.Itoa(e.Attempt))
	b.WriteString(" dest=")
	b.WriteString(strconv.Itoa(int(e.Node)))
	if e.At >= 0 {
		b.WriteString(" t=")
		b.WriteString(strconv.FormatFloat(e.At, 'g', -1, 64))
	}
	if e.Amount != 0 {
		b.WriteString(" extra=")
		b.WriteString(strconv.FormatFloat(e.Amount, 'g', -1, 64))
	}
	return b.String()
}

// Trace accumulates fault events. It is safe for concurrent use (the
// runtime records from many client goroutines); Render sorts by
// logical identity, so the rendered trace is deterministic even when the
// recording order is not.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// Record appends one event.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in logical order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Hop != b.Hop {
			return a.Hop < b.Hop
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Kind < b.Kind
	})
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Render returns the trace as newline-separated stable lines — the byte
// representation the golden chaos replay tests pin.
func (t *Trace) Render() string {
	evs := t.Events()
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Injector couples a Plan with a Trace and adapts both to the substrate
// fault hooks (sim.Engine's FaultInjector, runtime.Tracker's chaos path).
type Injector struct {
	plan  *Plan
	trace *Trace
}

// NewInjector builds a plan for an n-node network and an empty trace.
func NewInjector(cfg Config, n int) *Injector {
	return &Injector{plan: NewPlan(cfg, n), trace: &Trace{}}
}

// Plan returns the underlying deterministic plan.
func (i *Injector) Plan() *Plan { return i.plan }

// Trace returns the fault trace recorded so far.
func (i *Injector) Trace() *Trace { return i.trace }

// Attempt decides the fate of one message attempt: drop (retry later) or
// deliver with an extra delay (possibly 0). now is the simulated time, or
// -1 on substrates without a clock (crash windows then never match; the
// runtime drives crashes explicitly).
func (i *Injector) Attempt(op uint64, hop, attempt int, dest graph.NodeID, dist, now float64) (drop bool, extraDelay float64) {
	if i.plan.CrashedAt(dest, now) {
		i.trace.Record(Event{Kind: "crash", Op: op, Hop: hop, Attempt: attempt, Node: dest, At: now})
		return true, 0
	}
	if i.plan.DropAttempt(op, hop, attempt) {
		i.trace.Record(Event{Kind: "drop", Op: op, Hop: hop, Attempt: attempt, Node: dest, At: now})
		return true, 0
	}
	if extra := i.plan.ExtraDelay(op, hop, attempt, dist); extra > 0 {
		i.trace.Record(Event{Kind: "delay", Op: op, Hop: hop, Attempt: attempt, Node: dest, At: now, Amount: extra})
		return false, extra
	}
	return false, 0
}

// DropForced records a drop imposed by substrate state rather than the
// hash stream — the goroutine runtime's explicitly crashed destinations.
func (i *Injector) DropForced(op uint64, hop, attempt int, dest graph.NodeID) {
	i.trace.Record(Event{Kind: "crash", Op: op, Hop: hop, Attempt: attempt, Node: dest, At: -1})
}

// MaxAttempts returns the per-message retransmission bound.
func (i *Injector) MaxAttempts() int { return i.plan.MaxAttempts() }

// Backoff returns the simulated-time backoff after failed attempt k.
func (i *Injector) Backoff(attempt int) float64 { return i.plan.Backoff(attempt) }

// Fail records the exhaustion of a message's retransmission budget and
// returns the typed error the operation surfaces.
func (i *Injector) Fail(op uint64, hop, attempts int, dest graph.NodeID, now float64) error {
	i.trace.Record(Event{Kind: "fail", Op: op, Hop: hop, Attempt: attempts, Node: dest, At: now})
	return &DeliveryError{Op: op, Hop: hop, Attempts: attempts, Dest: dest}
}

package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs/live"
	"repro/internal/runtime"
	"repro/internal/runtime/track"
)

// moveReq is one queued position report: apply carries the outcome back
// on done, which the admitting handler blocks on — the HTTP ack IS the
// application, so nothing acknowledged can be lost.
type moveReq struct {
	obj  core.ObjectID
	to   graph.NodeID
	done chan moveResult
}

// moveResult is the outcome of an applied (or coalesced-away) move.
type moveResult struct {
	err error
	// coalesced reports that this request's position was superseded by a
	// later queued move of the same object before the tracker saw it —
	// the ack still means "the trail reflects a report at least as new
	// as yours".
	coalesced bool
}

// shard is one partition of the object space: an independent tracker
// plus the bounded move queue and drain loop in front of it.
type shard struct {
	id   int
	srv  *Server
	live *live.Recorder
	tr   *runtime.Tracker

	// moveQ is the bounded pending-move queue; a full queue is
	// backpressure (429), never a blocked handler.
	moveQ chan moveReq
	// sem is the inflight window for synchronous ops (publish/query);
	// a try-acquire miss is backpressure too.
	sem chan struct{}

	quit     chan struct{}
	quitOnce sync.Once
	loops    track.Group
}

// stopLoop signals the drain loop to flush and exit; idempotent so
// tests can stop one shard's loop ahead of a full Shutdown.
func (sh *shard) stopLoop() {
	sh.quitOnce.Do(func() { close(sh.quit) })
}

// tryAcquire claims an inflight slot without blocking.
func (sh *shard) tryAcquire() bool {
	select {
	case sh.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (sh *shard) release() { <-sh.sem }

// enqueueMove admits a move into the bounded queue. ok=false means the
// queue is full right now — the caller answers 429 and the client
// retries; nothing was accepted, so nothing can be lost.
func (sh *shard) enqueueMove(obj core.ObjectID, to graph.NodeID) (chan moveResult, bool) {
	req := moveReq{obj: obj, to: to, done: make(chan moveResult, 1)}
	select {
	case sh.moveQ <- req:
		return req.done, true
	default:
		return nil, false
	}
}

// drainLoop is the shard's single consumer: block for one pending move,
// gather whatever else is queued behind it, coalesce per object, apply,
// ack. Because handlers block on their done channels and Server.Shutdown
// only closes quit after every handler has returned, a closed quit
// implies an empty queue — the final gather below is belt and braces for
// direct (non-HTTP) enqueuers in tests.
func (sh *shard) drainLoop() {
	for {
		select {
		case <-sh.quit:
			sh.applyBatch(sh.gather(nil))
			return
		case first := <-sh.moveQ:
			sh.applyBatch(sh.gather([]moveReq{first}))
		}
	}
}

// gather drains everything currently queued, without blocking, onto
// batch. Arrival order is preserved — coalescing depends on it.
func (sh *shard) gather(batch []moveReq) []moveReq {
	for {
		select {
		case req := <-sh.moveQ:
			batch = append(batch, req)
		default:
			return batch
		}
	}
}

// applyBatch collapses the batch to one tracker op per object — the
// latest queued position wins, per arrival order — applies those in
// first-appearance order, then acks every waiter with its group's
// outcome. Superseded requests are marked coalesced; under the paper's
// one-by-one maintenance discipline this is where a burst of position
// reports for a hot object costs one trail update instead of many.
func (sh *shard) applyBatch(batch []moveReq) {
	if len(batch) == 0 {
		return
	}
	// Group by object, preserving first-appearance order so acks and
	// applies stay deterministic for a given arrival order. The map only
	// locates each object's group; iteration runs over the slice.
	groups := make([][]moveReq, 0, len(batch))
	idx := make(map[core.ObjectID]int, len(batch))
	for _, req := range batch {
		i, ok := idx[req.obj]
		if !ok {
			i = len(groups)
			idx[req.obj] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], req)
	}
	for _, group := range groups {
		winner := group[len(group)-1]
		err := sh.tr.Move(winner.obj, winner.to)
		for i, req := range group {
			req.done <- moveResult{err: err, coalesced: i != len(group)-1}
		}
	}
}

// queueDepth reports how many moves are pending right now (diagnostic).
func (sh *shard) queueDepth() int { return len(sh.moveQ) }

// inflight reports how many synchronous ops hold window slots right now.
func (sh *shard) inflight() int { return len(sh.sem) }

package serve

import (
	"repro/internal/obs/live"
	"repro/internal/runtime"
)

// shard is one partition of the object space: an independent tracker
// plus the inflight window in front of it.
type shard struct {
	id   int
	live *live.Recorder
	tr   *runtime.Tracker

	// sem is the inflight window every publish, move and query takes
	// before it touches the tracker; a try-acquire miss is backpressure
	// (429), never a blocked handler.
	sem chan struct{}
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

// inflight reports how many operations hold window slots right now.
func (sh *shard) inflight() int { return len(sh.sem) }
